"""The arithmetic tables that every per-entry loop indexes
(FieldSpec.tables), and those loops against oracles that compute in the
tests' own arithmetic instead (_checks.field_ops: mod p over a prime
field, field_tables_oracle's tables over an extension): matrix products,
RREF, hyperplane normals, the recurring sequence x^t mod f and the
code-list polynomial arithmetic of the primitive-polynomial search.  A
wrong table entry must show as a disagreement with those oracles.
GF(1031) is above the prime-table limit, so its loops read the views that
compute each lookup mod p.  Also the two public parsers' refusals of a
declared size, under an address-space cap."""

from __future__ import annotations

import copy
import os
import pickle
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import flagcodes as fc
from flagcodes.construct import _recurring_sequence
from flagcodes.field import _PRIME_TABLE_LIMIT, _ModView, _mod, _mul
from flagcodes.subspace import _hyperplane_normal

from _checks import (
    _random_matrix,
    field_ops,
    mat_mul_oracle,
    normal_oracle,
    poly_mul_oracle,
    poly_rem_oracle,
    recurring_sequence_oracle,
    rref_oracle,
)

# the fields of the loop tests: prime and extension fields, and a prime
# above the table limit
ORDERS = [3, 4, 5, 9, 25, 1031]


def assert_tables_agree(field, codes):
    """Every table entry at the ``codes`` equals the oracles' arithmetic
    (field_ops)."""
    add, mul, neg, inv = field.tables()
    ops = field_ops(field)
    for a in codes:
        for b in codes:
            assert (add[a][b], mul[a][b]) == (ops.add(a, b), ops.mul(a, b))
        assert neg[a] == ops.neg(a)
        assert inv[a] == (ops.inv(a) if a else 0)


class TestTables:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 251, _PRIME_TABLE_LIMIT])
    def test_prime_tables_match_the_methods(self, p):
        field = fc.field_make(p)
        assert all(isinstance(t, list) for t in field.tables())
        assert_tables_agree(field, range(p))

    @pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
    def test_extension_fields_return_their_tables(self, q):
        field = fc.field_from_order(q)
        assert field.tables() == (field._add_t, field._mul_t, field._neg_t, field._inv_t)
        assert all(t is u for t, u in zip(field.tables(), field.tables()))
        assert_tables_agree(field, range(q))

    @pytest.mark.parametrize("p", [263, 1031, 1000003])
    def test_a_prime_above_the_limit_reads_views(self, p):
        # no table with p^2 entries, or p, is made
        field = fc.field_make(p)
        assert all(isinstance(t, _ModView) for t in field.tables())
        rng = random.Random(p)
        assert_tables_agree(field, [0, 1, 2, p - 1] + [rng.randrange(p) for _ in range(20)])

    def test_prime_tables_are_built_on_first_use(self):
        params = fc.ConstructionParams.make(7, 2, 0, 2)
        field = params.field
        assert field._add_t is None
        tables = field.tables()
        assert all(t is u for t, u in zip(tables, field.tables()))

    @pytest.mark.parametrize("q", [3, 9, 1031])
    def test_tables_leave_the_identity_unchanged(self, q):
        field, other = fc.field_from_order(q), fc.field_from_order(q)
        before = hash(field)
        field.tables()
        assert field == other and hash(field) == before == hash(other)
        for twin in (pickle.loads(pickle.dumps(field)), copy.deepcopy(field)):
            assert twin == field and hash(twin) == before
            assert twin.tables()[1][2][2] == field_ops(field).mul(2, 2)

    def test_the_modulus_stays_part_of_the_identity(self):
        # GF(9) under x^2 + 1 and under x^2 + x + 2: equal orders, other fields
        f1, f2 = fc.field_make(3, 2, [1, 0, 1]), fc.field_make(3, 2, [2, 1, 1])
        h1, h2 = hash(f1), hash(f2)
        assert f1.tables()[1] != f2.tables()[1]
        assert f1 != f2 and (hash(f1), hash(f2)) == (h1, h2)
        assert f1 == fc.field_make(3, 2, [1, 0, 1]) and hash(f1) == hash(fc.field_make(3, 2, [1, 0, 1]))


class TestOracleIndependence:
    """The oracles read none of the tables they check: a GF(9) whose
    multiplication table has two entries swapped makes a product and an
    RREF that read one of them disagree with mat_mul_oracle and
    rref_oracle."""

    def test_a_wrong_table_entry_shows(self):
        field = fc.FieldSpec(3, 2)
        a, b = 2, 3
        _, mul, _, inv = field.tables()
        x = inv[a]  # [[a, b]] is scaled by 1/a: its RREF reads mul[x][b]
        m = fc.MatrixGF(field, [[a, b]])
        left, right = fc.MatrixGF(field, [[x]]), fc.MatrixGF(field, [[b]])
        assert (left @ right).int_rows() == mat_mul_oracle(left, right)
        assert m.rref() == rref_oracle(m)
        mul[x][b], mul[x][b + 1] = mul[x][b + 1], mul[x][b]
        assert (left @ right).int_rows() != mat_mul_oracle(left, right)
        assert m.rref()[0].int_rows() != rref_oracle(m)[0].int_rows()


@pytest.mark.parametrize("q", ORDERS)
class TestLoops:
    def test_products_match_the_oracle(self, q):
        field = fc.field_from_order(q)
        rng = random.Random(q)
        for nrows, inner, ncols in [(1, 1, 1), (3, 4, 5), (6, 6, 6), (5, 3, 7), (0, 2, 3)]:
            a = _random_matrix(field, rng, nrows, inner)
            b = _random_matrix(field, rng, inner, ncols)
            want = mat_mul_oracle(a, b)
            assert (a @ b).int_rows() == want == (a @ b._tabulated()).int_rows()

    def test_rref_matches_the_oracle(self, q):
        field = fc.field_from_order(q)
        rng = random.Random(q + 1)
        for nrows, ncols, rank in [(4, 6, 4), (5, 5, 3), (6, 4, 2), (3, 7, 1), (4, 4, 4)]:
            # a product through ``rank`` columns has rank at most that
            m = _random_matrix(field, rng, nrows, rank) @ _random_matrix(field, rng, rank, ncols)
            assert m.rref() == rref_oracle(m)

    def test_hyperplane_normal_matches_the_oracle(self, q):
        field = fc.field_from_order(q)
        rng = random.Random(q + 2)
        # the oracle tries (q^n - 1)/(q - 1) vectors
        n = 2 if q > 100 else 3
        checked = 0
        while checked < 8:
            m = _random_matrix(field, rng, n - 1, n)
            if m.rank() == n - 1:
                u = fc.subspace_of(m)
                assert _hyperplane_normal(u.key[1], n, field) == normal_oracle(u)
                checked += 1

    def test_recurring_sequence_matches_the_oracle(self, q):
        field = fc.field_from_order(q)
        rng = random.Random(q + 3)
        for d in (1, 2, 3):
            f = fc.Poly(field, [rng.randrange(q) for _ in range(d)] + [1])
            assert _recurring_sequence(f, 40) == list(map(tuple, recurring_sequence_oracle(f, 40)))

    def test_polynomial_arithmetic_matches_the_oracle(self, q):
        check_polynomial_arithmetic(fc.field_from_order(q), random.Random(q + 4))


def check_polynomial_arithmetic(field, rng):
    """_mul and _mod, which the primitive-polynomial search runs, against the
    schoolbook product and long division on random code lists."""
    def poly(degree):
        return [rng.randrange(field.q) for _ in range(degree)] + [rng.randrange(1, field.q)]

    for da, db in [(0, 0), (1, 3), (4, 2), (6, 6)]:
        a, b = poly(da), poly(db)
        assert _mul(field, a, b) == poly_mul_oracle(field, a, b)
        f = poly(db)[:-1] + [1]
        assert _mod(field, list(a), f) == poly_rem_oracle(field, a, f)


def test_gf2_polynomial_arithmetic_matches_the_oracle():
    check_polynomial_arithmetic(fc.field_from_order(2), random.Random(2))


def test_gf2_recurring_sequence_is_the_oracle_as_bitmasks():
    gf2 = fc.field_from_order(2)
    for coeffs in ([1, 1, 1], [1, 0, 0, 1, 1], [1, 1, 0, 1, 1, 0, 1]):
        f = fc.Poly(gf2, coeffs)
        want = [int("".join(map(str, row)), 2) for row in recurring_sequence_oracle(f, 70)]
        assert _recurring_sequence(f, 70) == want


def run_capped(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with its address space capped at
    600 MB, so that a size a text declares cannot be allocated for long."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, preexec_fn=cap)


# the child prints the seconds the parser took to refuse, and its message
REFUSAL = """
import time, flagcodes as fc
start = time.perf_counter()
try:
    fc.{call}
except ValueError as exc:
    print(time.perf_counter() - start, exc, sep="\\n")
"""


class TestDeclaredSizes:
    """The public parsers refuse a size the text declares, before anything of
    that size is built: within a second, with ValueError."""

    @pytest.mark.parametrize("call, message", [
        ('matrix_from_text("9999999999 0 GF(2)")',
         "matrix header '9999999999 0 GF(2)' has 0 columns, and more than 1048576 rows"),
        ('poly_from_text("x^9999999999+1 over GF(2)")', "term x^9999999999 is above x^1024"),
    ], ids=["matrix", "poly"])
    def test_refused_before_allocating(self, call, message):
        proc = run_capped(REFUSAL.format(call=call))
        assert proc.returncode == 0 and proc.stderr == ""
        seconds, said = proc.stdout.splitlines()
        assert float(seconds) < 1 and said == message

    def test_sizes_up_to_the_bounds_still_parse(self):
        rows = 1 << 20
        m = fc.matrix_from_text(f"{rows} 0 GF(3)")
        assert (m.nrows, m.ncols) == (rows, 0)
        with pytest.raises(ValueError, match="more than 1048576 rows"):
            fc.matrix_from_text(f"{rows + 1} 0 GF(3)")
        f = fc.poly_from_text("x^1024+1 over GF(2)")
        assert f.degree == 1024 and f.coeffs[0] == 1
        with pytest.raises(ValueError, match=r"term x\^1025 is above x\^1024"):
            fc.poly_from_text("x^1025+x over GF(2)")
