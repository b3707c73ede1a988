from __future__ import annotations

import itertools
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagcodes as fc
import flagcodes.field
from flagcodes.errors import (
    DegreeMismatch,
    FactorizationTooLarge,
    FieldMismatch,
    NonMonic,
    NotPrime,
    Reducible,
    ReducibleModulus,
)

from _checks import brute_force_irreducible, field_tables_oracle, poly_text, transpose, x_order


class TestFieldMake:
    def test_prime_fields(self):
        for p in (2, 3, 5, 7):
            f = fc.field_make(p)
            assert (f.p, f.e, f.q) == (p, 1, p)
            assert f.modulus is None

    def test_gf4_explicit_modulus(self, gf2):
        mod = fc.Poly(gf2, [1, 1, 1])  # x^2 + x + 1
        # no root in GF(2): both evaluations are nonzero
        for a in (0, 1):
            val = (a * a + a + 1) % 2
            assert val != 0
        f = fc.field_make(2, 2, mod)
        assert f.q == 4
        assert f.modulus.coeffs == (1, 1, 1)

    def test_gf4_auto_modulus(self, gf4):
        assert poly_text(gf4.modulus) == "x^2+x+1 over GF(2)"

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            fc.field_make(4)

    def test_reducible_modulus(self, gf2):
        with pytest.raises(ReducibleModulus):
            fc.field_make(2, 2, fc.Poly(gf2, [1, 0, 1]))  # (x+1)^2

    def test_degree_mismatch(self, gf2):
        with pytest.raises(DegreeMismatch):
            fc.field_make(2, 2, fc.Poly(gf2, [1, 1, 0, 1]))
        with pytest.raises(DegreeMismatch):
            fc.field_make(2, 1, fc.Poly(gf2, [1, 1]))

    def test_field_from_order(self):
        assert fc.field_from_order(9).e == 2
        assert fc.field_from_order(7).q == 7
        with pytest.raises(NotPrime):
            fc.field_from_order(6)

    def test_field_from_order_with_a_modulus(self):
        assert fc.field_from_order(4, [1, 1, 1]) == fc.field_make(2, 2, [1, 1, 1])
        with pytest.raises(NotPrime):
            fc.field_from_order(6, [1, 1, 1])


class TestArithmetic:
    """The field axioms on the tables of FieldSpec.tables()."""

    def test_char2(self, gf2):
        add = gf2.tables()[0]
        assert add[1][1] == 0

    def test_gf3_inverse(self, gf3):
        inv = gf3.tables()[3]
        assert inv[2] == 2

    def test_gf4_generator_square(self, gf4):
        mul = gf4.tables()[1]
        x = 2  # the code of the residue of x
        assert mul[x][x] == 3  # x + 1

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_axioms_exhaustive(self, q):
        field = fc.field_from_order(q)
        elems = list(range(q))
        add_t, mul_t, neg, inv = field.tables()

        def add(a, b):
            return add_t[a][b]

        def mul(a, b):
            return mul_t[a][b]

        for a, b in itertools.product(elems, repeat=2):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(elems, repeat=3):
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        for a in elems:
            assert add(a, neg[a]) == 0
            if a:
                assert mul(a, inv[a]) == 1
                power = 1
                for _ in range(q - 1):
                    power = mul(power, a)
                assert power == 1


class TestTables:
    """FieldSpec's tables against field_tables_oracle, a route that sums
    digit by digit and multiplies polynomials mod the modulus."""

    @staticmethod
    def assert_tables(field):
        assert (field._add_t, field._mul_t, field._neg_t, field._inv_t) == field_tables_oracle(field)

    @pytest.mark.parametrize("q", [4, 8, 16, 32, 9, 27, 25])
    def test_every_modulus(self, q):
        ((p, e),) = fc.factorize(q).items()
        base = fc.field_make(p)
        moduli = []
        for lower in itertools.product(range(p), repeat=e):  # in code order
            f = fc.Poly(base, lower[::-1] + (1,))
            if brute_force_irreducible(f):
                moduli.append(f)
        # the default modulus is the first by code
        assert fc.field_from_order(q).modulus == moduli[0]
        for mod in moduli:
            self.assert_tables(fc.field_make(p, e, mod))

    @pytest.mark.parametrize("q", [49, 64, 81, 121, 125, 128])
    def test_default_modulus(self, q):
        self.assert_tables(fc.field_from_order(q))

    def test_largest_field_builds_fast(self):
        start = perf_counter()
        field = fc.field_from_order(1024)
        assert perf_counter() - start < 3
        _, mul, _, inv = field.tables()
        assert mul[inv[5]][5] == 1


class TestCodeValidation:
    """The one rule for entries of MatrixGF and Poly: int codes only; GF(p)
    reduces mod p, GF(p^e) refuses codes outside [0, q)."""

    @pytest.mark.parametrize("bad", [1.0, "1", None])
    def test_non_int_entries_raise_type_error(self, gf3, gf4, bad):
        for field in (gf3, gf4):
            with pytest.raises(TypeError):
                fc.MatrixGF(field, [[0, bad]])
            with pytest.raises(TypeError):
                fc.Poly(field, [1, bad])

    def test_prime_field_reduces_mod_p(self, gf3):
        assert fc.MatrixGF(gf3, [[-1, 4]]).int_rows() == ((2, 1),)
        assert fc.Poly(gf3, [-1, 4]).coeffs == (2, 1)

    @pytest.mark.parametrize("bad", [4, -1])
    def test_extension_field_rejects_codes_out_of_range(self, gf4, bad):
        with pytest.raises(ValueError):
            fc.MatrixGF(gf4, [[0, 1], [bad, 3]])
        with pytest.raises(ValueError):
            fc.Poly(gf4, [bad, 1])
        with pytest.raises(ValueError):
            fc.matrix_from_text(f"2 2 GF(2^2)\n0 1\n{bad} 3")


class TestIrreducibility:
    def test_examples(self, gf2, gf3):
        assert fc.is_irreducible(fc.Poly(gf2, [1, 1, 1]))
        assert not fc.is_irreducible(fc.Poly(gf2, [1, 0, 1]))  # (x+1)^2
        assert fc.is_irreducible(fc.Poly(gf3, [1, 0, 1]))

    def test_non_monic(self, gf3):
        with pytest.raises(NonMonic):
            fc.is_irreducible(fc.Poly(gf3, [1, 2]))

    @pytest.mark.parametrize("q,max_deg", [(2, 6), (3, 4), (4, 3)])
    def test_against_trial_division(self, q, max_deg):
        field = fc.field_from_order(q)
        for d in range(2, max_deg + 1):
            for code in range(q**d):
                coeffs = []
                m = code
                for _ in range(d):
                    coeffs.append(m % q)
                    m //= q
                coeffs.append(1)
                f = fc.Poly(field, coeffs)
                assert fc.is_irreducible(f) == brute_force_irreducible(f)


class TestPrimitivity:
    def test_examples(self, gf2, gf3):
        f = fc.Poly(gf2, [1, 1, 1])
        assert fc.is_primitive(f)
        assert x_order(f) == 3

        g = fc.Poly(gf3, [1, 0, 1])  # x^2 + 1
        assert not fc.is_primitive(g)
        assert x_order(g) == 4  # strictly below 8

        assert fc.is_primitive(fc.Poly(gf2, [1, 1]))  # x + 1, trivial unit group

    def test_reducible_raises(self, gf2):
        with pytest.raises(Reducible):
            fc.is_primitive(fc.Poly(gf2, [1, 0, 1]))

    def test_x_itself_not_primitive(self, gf2):
        assert not fc.is_primitive(fc.Poly(gf2, [0, 1]))

    @pytest.mark.parametrize(
        "q,d,expected",
        [
            (2, 2, "x^2+x+1 over GF(2)"),
            (2, 3, "x^3+x+1 over GF(2)"),
            (3, 2, "x^2+x+2 over GF(3)"),
        ],
    )
    def test_find_primitive_poly(self, q, d, expected):
        field = fc.field_from_order(q)
        f = fc.find_primitive_poly(field, d)
        assert poly_text(f) == expected
        assert fc.is_irreducible(f) and fc.is_primitive(f)
        assert x_order(f) == q**d - 1
        # nothing smaller (by coefficient code) reaches the full order
        found_code = sum(c * q**i for i, c in enumerate(f.coeffs[:d]))
        for code in range(found_code):
            coeffs = []
            m = code
            for _ in range(d):
                coeffs.append(m % q)
                m //= q
            coeffs.append(1)
            g = fc.Poly(field, coeffs)
            if g.coeffs[0] == 0:
                continue
            assert x_order(g) < q**d - 1

    def test_second_smallest(self, gf2):
        it = fc.iter_primitive_polys(gf2, 3)
        assert poly_text(next(it)) == "x^3+x+1 over GF(2)"
        assert poly_text(next(it)) == "x^3+x^2+1 over GF(2)"

    # phi(q^d - 1) / d primitive polynomials of each degree
    SEARCHES = [(2, 10, 60), (3, 4, 8), (4, 3, 12), (9, 2, 16)]

    @pytest.mark.parametrize("q,d,count", SEARCHES)
    def test_search_yields_the_candidates_both_public_tests_pass(self, q, d, count):
        field = fc.field_from_order(q)
        want = []
        for code in range(q**d):
            f = fc.Poly(field, [code // q**i % q for i in range(d)] + [1])
            if fc.is_irreducible(f) and fc.is_primitive(f):
                want.append(f.coeffs)
        got = [f.coeffs for f in fc.iter_primitive_polys(field, d)]
        assert got == want
        assert len(got) == count

    def test_search_tests_each_candidate_for_irreducibility_once(self, monkeypatch):
        calls = []
        test = flagcodes.field.is_irreducible

        def counting(f):
            calls.append(f.coeffs)
            return test(f)

        monkeypatch.setattr(flagcodes.field, "is_irreducible", counting)
        for q, d, count in self.SEARCHES:
            field = fc.field_from_order(q)  # which may test its modulus
            calls.clear()
            assert len(list(fc.iter_primitive_polys(field, d))) == count
            assert len(calls) == len(set(calls)) == q**d

    def test_search_factors_the_group_order_once(self, monkeypatch):
        calls = []
        factor = flagcodes.field.factorize

        def counting(n, *args):
            calls.append(n)
            return factor(n, *args)

        monkeypatch.setattr(flagcodes.field, "factorize", counting)
        for q, d, count in self.SEARCHES:
            field = fc.field_from_order(q)  # which factors q
            flagcodes.field._order_primes.cache_clear()
            calls.clear()
            assert len(list(fc.iter_primitive_polys(field, d))) == count
            assert calls == [q**d - 1]
            # the count and a second search share that factorization
            assert flagcodes.field._primitive_count(field, d) == count
            assert len(list(fc.iter_primitive_polys(field, d))) == count
            assert calls == [q**d - 1]

    def test_count_matches_the_search(self):
        # phi(q^d - 1)/d, for every field order q and degree d with q^d <= 512
        checked = 0
        for q in range(2, 513):
            if len(fc.factorize(q)) > 1:
                continue
            field = fc.field_from_order(q)
            d = 1
            while q**d <= 512:
                count = flagcodes.field._primitive_count(field, d)
                assert count == len(list(fc.iter_primitive_polys(field, d))), (q, d)
                checked += 1
                d += 1
        assert checked == 144

    @pytest.mark.parametrize("q,d", [(2, 4), (2, 8), (2, 10), (3, 4), (4, 3), (5, 2)])
    def test_powers_visit_every_nonzero_residue(self, q, d):
        field = fc.field_from_order(q)
        f = fc.find_primitive_poly(field, d)
        assert x_order(f) == q**d - 1


class TestSearchAgainstOracles:
    """The search and the irreducibility test against x_order and
    brute_force_irreducible, oracles on plain code lists that call no Poly
    arithmetic: every monic candidate of every degree d with q^d <= 512."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_every_small_degree(self, q):
        field = fc.field_from_order(q)
        d = 1
        while q**d <= 512:
            primitive = []
            for lower in itertools.product(range(q), repeat=d):  # in code order
                f = fc.Poly(field, lower[::-1] + (1,))
                assert fc.is_irreducible(f) == brute_force_irreducible(f), f
                if f.coeffs[0] and x_order(f) == q**d - 1:
                    primitive.append(f)
            assert list(fc.iter_primitive_polys(field, d)) == primitive
            d += 1


class TestFactorize:
    def test_exact(self):
        assert fc.factorize(1) == {}
        assert fc.factorize(504) == {2: 3, 3: 2, 7: 1}

    def test_budget(self):
        # 1000003 * 1000033: both primes lie past the trial-division bound
        assert flagcodes.field.DEFAULT_FACTOR_BUDGET == 10**6
        with pytest.raises(FactorizationTooLarge, match="beyond 1000000$"):
            fc.factorize(1000003 * 1000033)

    def test_is_prime_uses_the_bound(self):
        assert [n for n in range(-2, 12) if fc.is_prime(n)] == [2, 3, 5, 7, 11]
        assert fc.is_prime(2**31 - 1)
        # 2^61 - 1 is prime, but certifying it needs divisors past 10^6
        with pytest.raises(FactorizationTooLarge, match="beyond 1000000$"):
            fc.is_prime(2**61 - 1)

    def test_is_prime_refuses_past_the_bound_before_dividing(self, monkeypatch):
        # a composite past 10^12 is refused as a prime would be, on its
        # size alone
        monkeypatch.setattr(flagcodes.field, "factorize", None)
        for n in (10**12 + 1, 2 * (2**61 - 1), 2 * 10**4000):
            with pytest.raises(FactorizationTooLarge, match=f"a {n.bit_length()}-bit number"):
                fc.is_prime(n)

    def test_field_from_order_refuses_past_the_bound_before_dividing(self, monkeypatch):
        # no field of order above 10^12 can be built: a prime that large
        # cannot be certified, and a prime power exceeds the table size
        monkeypatch.setattr(flagcodes.field, "factorize", None)
        for q in (10**12 + 39, 2**50, 2 * (10**3998 + 1)):
            with pytest.raises(FactorizationTooLarge, match="is above 10\\^12"):
                fc.field_from_order(q)

    def test_huge_number_named_by_its_bit_length(self):
        # 2 (10^5000 + 1) has 5001 digits, past the int-to-str limit
        n = 2 * (10**5000 + 1)
        with pytest.raises(FactorizationTooLarge, match="beyond 1000000$") as exc:
            fc.factorize(n)
        assert str(exc.value).startswith(f"factoring a {n.bit_length()}-bit number: cofactor a ")
        assert len(str(exc.value)) < 200

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200)
    def test_product_recovers(self, n):
        factors = fc.factorize(n)
        prod = 1
        for p, mult in factors.items():
            assert fc.is_prime(p)
            prod *= p**mult
        assert prod == n


class TestPolyText:
    def test_term_form(self, gf2):
        f = fc.poly_from_text("x^3+x+1 over GF(2)")
        assert f.coeffs == (1, 1, 0, 1)

    def test_list_form(self, gf2):
        f = fc.poly_from_text("[1,1,0,1] @ GF(2)")
        assert f == fc.poly_from_text("x^3+x+1 over GF(2)")

    def test_roundtrip(self, gf3):
        for coeffs in [(2, 1, 1), (1, 0, 2, 1), (2,)]:
            f = fc.Poly(gf3, coeffs)
            assert fc.poly_from_text(poly_text(f)) == f

    def test_field_conflict(self, gf3):
        with pytest.raises(FieldMismatch):
            fc.poly_from_text("x+1 over GF(2)", field=gf3)


class TestFieldName:
    """The text format names a field's modulus unless it is the default one."""

    @pytest.mark.parametrize("p,e,coeffs,name", [
        (2, 1, None, "GF(2)"),
        (2, 3, None, "GF(2^3)"),
        (2, 3, [1, 1, 0, 1], "GF(2^3)"),  # x^3+x+1, the default modulus
        (2, 3, [1, 0, 1, 1], "GF(2^3,x^3+x^2+1)"),
        (3, 2, [2, 1, 1], "GF(3^2,x^2+x+2)"),
    ])
    def test_round_trip(self, p, e, coeffs, name):
        from flagcodes.field import field_name, parse_field_name

        field = fc.field_make(p, e, coeffs)
        assert field_name(field) == name
        back = parse_field_name(name)
        assert back == field and back.modulus == field.modulus

    def test_matrix_text_keeps_the_modulus(self):
        field = fc.field_make(2, 3, [1, 0, 1, 1])
        m = fc.MatrixGF(field, [[0, 3, 7], [5, 1, 2]])
        text = fc.matrix_to_text(m)
        assert text.splitlines()[0] == "2 3 GF(2^3,x^3+x^2+1)"
        back = fc.matrix_from_text(text)
        assert back == m and back.field.modulus == field.modulus
        assert back @ transpose(back) == m @ transpose(m)

    @pytest.mark.parametrize("token", ["GF(3,x+1)", "GF(2^3,x^3+x+)", "GF(2^3,x^2+x+1)", "GF(2^2,x^2+1)"])
    def test_bad_tokens_rejected(self, token):
        from flagcodes.field import parse_field_name

        from flagcodes.errors import FlagCodesError

        with pytest.raises((ValueError, FlagCodesError)):
            parse_field_name(token)
