from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagcodes as fc
import flagcodes.field
from flagcodes.errors import (
    DegreeMismatch,
    DivisionByZero,
    FactorizationTooLarge,
    FieldMismatch,
    NonMonic,
    NotPrime,
    Reducible,
    ReducibleModulus,
)


def x_order(f: fc.Poly) -> int:
    """Multiplicative order of x modulo f by successive multiplication.

    Independent of the factored primitivity test; requires a nonzero
    constant term so that x is a unit in the quotient.
    """
    assert f.coeffs[0] != 0
    field = f.field
    x = fc.Poly.x(field)
    one = fc.Poly.one(field)
    g = x % f
    t = 1
    bound = field.q ** f.degree
    while g != one:
        g = (g * x) % f
        t += 1
        assert t <= bound, "order search ran away"
    return t


def brute_force_irreducible(f: fc.Poly) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    field = f.field
    d = f.degree
    for deg in range(1, d // 2 + 1):
        for code in range(field.q**deg):
            coeffs = []
            m = code
            for _ in range(deg):
                coeffs.append(m % field.q)
                m //= field.q
            coeffs.append(1)
            g = fc.Poly(field, coeffs)
            if (f % g).is_zero:
                return False
    return True


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
        assert fc.poly_to_text(gf4.modulus) == "x^2+x+1 over GF(2)"

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


class TestArithmetic:
    def test_char2(self, gf2):
        assert gf2.add(1, 1) == 0

    def test_gf3_inverse(self, gf3):
        assert gf3.inv(2) == 2

    def test_gf4_generator_square(self, gf4):
        x = 2  # the code of the residue of x
        assert gf4.mul(x, x) == 3  # x + 1

    def test_division_by_zero(self, gf3, gf4):
        with pytest.raises(DivisionByZero):
            gf3.inv(0)
        with pytest.raises(DivisionByZero):
            gf4.inv(0)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_axioms_exhaustive(self, q):
        field = fc.field_from_order(q)
        elems = list(range(q))
        add, mul = field.add, field.mul
        for a, b in itertools.product(elems, repeat=2):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(elems, repeat=3):
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        for a in elems:
            assert add(a, field.neg(a)) == 0
            if a:
                assert mul(a, field.inv(a)) == 1
                power = 1
                for _ in range(q - 1):
                    power = mul(power, a)
                assert power == 1


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
        assert fc.poly_to_text(f) == expected
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
        assert fc.poly_to_text(next(it)) == "x^3+x+1 over GF(2)"
        assert fc.poly_to_text(next(it)) == "x^3+x^2+1 over GF(2)"

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
            calls.clear()
            assert len(list(fc.iter_primitive_polys(field, d))) == count
            assert calls == [q**d - 1]

    @pytest.mark.parametrize("q,d", [(2, 4), (2, 8), (2, 10), (3, 4), (4, 3), (5, 2)])
    def test_powers_visit_every_nonzero_residue(self, q, d):
        field = fc.field_from_order(q)
        f = fc.find_primitive_poly(field, d)
        x = fc.Poly.x(field)
        seen = set()
        g = x % f
        for _ in range(q**d - 1):
            seen.add(g.coeffs)
            g = (g * x) % f
        assert len(seen) == q**d - 1


class TestFactorize:
    def test_exact(self):
        assert fc.factorize(1) == {}
        assert fc.factorize(504) == {2: 3, 3: 2, 7: 1}

    def test_budget(self):
        # 1009 * 1013, both primes beyond the tiny budget
        with pytest.raises(FactorizationTooLarge):
            fc.factorize(1009 * 1013, budget=100)

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
            assert fc.poly_from_text(fc.poly_to_text(f)) == f

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
        assert back @ back.transpose() == m @ m.transpose()

    @pytest.mark.parametrize("token", ["GF(3,x+1)", "GF(2^3,x^3+x+)", "GF(2^3,x^2+x+1)", "GF(2^2,x^2+1)"])
    def test_bad_tokens_rejected(self, token):
        from flagcodes.field import parse_field_name

        from flagcodes.errors import FlagCodesError

        with pytest.raises((ValueError, FlagCodesError)):
            parse_field_name(token)
