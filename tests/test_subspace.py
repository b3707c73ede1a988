from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagcodes as fc
from flagcodes import cli
from flagcodes.errors import (
    AmbientMismatch,
    HypothesisUnmet,
    NotConstantDim,
    TooFewWords,
    ZeroRank,
)

from _checks import (
    check_intersection_oracle,
    check_metric_axioms_exhaustive,
    enumerate_gf2_subspaces,
    gf2_subspace_from_vectors,
)


def space(field, rows):
    return fc.subspace_of(fc.MatrixGF(field, rows))


class TestCanonicalization:
    def test_already_reduced(self, gf2):
        s = space(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert s.canon.int_rows() == ((1, 0, 0, 0), (0, 1, 0, 0))

    def test_full_space(self, gf2):
        s = space(gf2, [[1, 1], [0, 1]])
        assert s.canon == fc.MatrixGF.identity(gf2, 2)

    def test_duplicate_rows(self, gf2):
        s = space(gf2, [[1, 0, 1], [1, 0, 1]])
        assert s.dim == 1 and s.canon.int_rows() == ((1, 0, 1),)

    def test_generator_invariance(self, gf3):
        a = space(gf3, [[1, 2, 0], [0, 1, 1]])
        b = space(gf3, [[1, 0, 1], [2, 1, 1]])  # row-mixed generators
        assert (a == b) == (a.canon == b.canon)

    def test_zero_rank(self, gf2):
        with pytest.raises(ZeroRank):
            space(gf2, [[0, 0, 0]])


class TestDistance:
    def test_self_distance(self, gf2):
        s = space(gf2, [[1, 0, 1, 0]])
        assert fc.subspace_distance(s, s) == 0

    def test_complementary_planes(self, gf2):
        u = space(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        v = space(gf2, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert fc.subspace_distance(u, v) == 4

    def test_lines(self, gf2):
        u = space(gf2, [[1, 0, 0, 0]])
        v = space(gf2, [[1, 1, 0, 0]])
        assert fc.subspace_distance(u, v) == 2

    def test_unequal_dims(self, gf2):
        u = space(gf2, [[1, 0, 0, 0]])
        v = space(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert fc.subspace_distance(u, v) == 1  # contained line in a plane

    def test_ambient_mismatch(self, gf2):
        with pytest.raises(AmbientMismatch):
            fc.subspace_distance(space(gf2, [[1, 0]]), space(gf2, [[1, 0, 0]]))

    def test_gf3_distance(self, gf3):
        u = space(gf3, [[1, 0, 2]])
        v = space(gf3, [[2, 0, 1]])  # scalar multiple: same line
        assert fc.subspace_distance(u, v) == 0

    def test_metric_axioms_small(self):
        assert check_metric_axioms_exhaustive(3) == 15

    def test_intersection_oracle_small(self):
        check_intersection_oracle(3)

    def test_contains_matches_vector_sets(self):
        # every ordered pair of nonzero subspaces of GF(2)^4
        vecsets = enumerate_gf2_subspaces(4)
        subs = [gf2_subspace_from_vectors(vs, 4) for vs in vecsets]
        for vs_u, u in zip(vecsets, subs):
            for vs_v, v in zip(vecsets, subs):
                assert u.contains(v) == (vs_v <= vs_u)

    @pytest.mark.parametrize(
        "field_args", [(3,), (2, 2), (5,), (5, 2)], ids=["GF3", "GF4", "GF5", "GF25"]
    )
    def test_contains_matches_intersection_dim(self, field_args):
        field = fc.field_make(*field_args)
        rng = random.Random(11)
        subs = []
        while len(subs) < 40:
            rows = [[rng.randrange(field.q) for _ in range(4)] for _ in range(rng.randrange(1, 4))]
            m = fc.MatrixGF(field, rows, ncols=4)
            if m.rank():
                subs.append(fc.subspace_of(m))
        for u in subs:
            for v in subs:
                assert u.contains(v) == (fc.intersection_dim(u, v) == v.dim)


class TestCodes:
    def test_min_distance_pair(self, gf2):
        u = space(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        v = space(gf2, [[0, 0, 1, 0], [0, 0, 0, 1]])
        code = fc.SubspaceCode(4, [u, v])
        assert fc.code_min_distance(code) == 4

    def test_too_few(self, gf2):
        code = fc.SubspaceCode(4, [space(gf2, [[1, 0, 0, 0]])])
        with pytest.raises(TooFewWords):
            fc.code_min_distance(code)

    def test_dedupe_and_order(self, gf2):
        u = space(gf2, [[1, 0, 0, 0]])
        again = space(gf2, [[1, 0, 0, 0]])
        v = space(gf2, [[0, 1, 0, 0]])
        code = fc.SubspaceCode(4, [v, u, again])
        assert len(code) == 2
        assert code.words[0] == v  # lexicographic on canonical entries

    def test_words_over_two_fields_refused(self, gf2, gf4):
        # equal code rows, so a key of code rows would merge the two words
        u = space(gf2, [[1, 0, 1]])
        v = space(gf4, [[1, 0, 1]])
        assert u.canon.int_rows() == v.canon.int_rows() and u != v
        with pytest.raises(AmbientMismatch, match=r"over GF\(2\^2\) \(modulus .* over GF\(2\) \(modulus"):
            fc.SubspaceCode(3, [u, v])
        f1 = fc.field_make(2, 3)
        f2 = fc.field_make(2, 3, [1, 0, 1, 1])
        a = space(f1, [[1, 0, 1]])
        b = space(f2, [[1, 0, 1]])
        assert a.key == b.key and a != b
        with pytest.raises(AmbientMismatch, match=rf"modulus {re.escape(str(f1.modulus))}.*modulus {re.escape(str(f2.modulus))}"):
            fc.SubspaceCode(3, [b, a])
        assert len(fc.SubspaceCode(3, [a, space(f1, [[1, 0, 1]])])) == 1

    def test_partial_spread(self, gf2):
        u = space(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        v = space(gf2, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert fc.is_partial_spread(fc.SubspaceCode(4, [u, v]))
        w = space(gf2, [[1, 0, 0, 0], [0, 0, 1, 0]])
        assert not fc.is_partial_spread(fc.SubspaceCode(4, [u, w]))

    def test_not_constant_dim(self, gf2):
        # words of two dims are refused when the code is built, wherever
        # the odd word comes; an empty code has no dim to dump
        point = space(gf2, [[1, 0, 0, 0]])
        line = space(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        other = space(gf2, [[0, 0, 1, 0]])
        for words in ([point, line], [line, point], [point, other, line]):
            with pytest.raises(NotConstantDim, match="a dim-. word in a code of dim-. words"):
                fc.SubspaceCode(4, words)
        empty = fc.SubspaceCode(4, [])
        assert empty.constant_dim is None and repr(empty) == "SubspaceCode(0 words, dim None, ambient 4)"
        with pytest.raises(NotConstantDim):
            empty.dump()

    def test_equidistant(self, gf2):
        u = space(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        v = space(gf2, [[0, 0, 1, 0], [0, 0, 0, 1]])
        w = space(gf2, [[1, 0, 0, 0], [0, 0, 1, 0]])
        spread = fc.SubspaceCode(4, [u, v])
        assert fc.is_equidistant_c(spread, 0)
        sharing = fc.SubspaceCode(4, [u, w])
        assert fc.is_equidistant_c(sharing, 1)
        assert not fc.is_equidistant_c(sharing, 0)

    def test_serialization_roundtrip(self, gf2):
        u = space(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        v = space(gf2, [[0, 0, 1, 0], [0, 0, 0, 1]])
        code = fc.SubspaceCode(4, [u, v])
        text = code.dump()
        assert text.splitlines()[0] == "4 2 2 2"
        assert fc.SubspaceCode.load(text) == code

    @staticmethod
    def _spread_text(gf2) -> str:
        u = space(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        v = space(gf2, [[0, 0, 1, 0], [0, 0, 0, 1]])
        return fc.SubspaceCode(4, [u, v]).dump()

    def test_load_rejects_text_after_the_declared_words(self, gf2, tmp_path):
        text = self._spread_text(gf2).replace("4 2 2 2", "4 2 2 1", 1)
        with pytest.raises(ValueError, match="text after the 1 words"):
            fc.SubspaceCode.load(text)
        path = tmp_path / "short.code"
        path.write_text(text)
        assert cli.main(["spectrum", "--code", str(path)]) == 2

    def test_load_rejects_a_word_written_twice(self, gf2, tmp_path):
        text = self._spread_text(gf2)
        first = "".join(text.splitlines(keepends=True)[1:4])
        text = text.replace("4 2 2 2", "4 2 2 3", 1) + first
        with pytest.raises(ValueError, match="declares 3 words, but 2 are distinct"):
            fc.SubspaceCode.load(text)
        path = tmp_path / "twice.code"
        path.write_text(text)
        assert cli.main(["spectrum", "--code", str(path)]) == 2

    def test_load_rejects_a_negative_count(self, tmp_path):
        text = "4 2 2 -1\n"
        with pytest.raises(ValueError, match="declares -1 words"):
            fc.SubspaceCode.load(text)
        path = tmp_path / "negative.code"
        path.write_text(text)
        assert cli.main(["spectrum", "--code", str(path)]) == 2

    def test_load_rejects_a_header_q_other_than_the_field(self, gf2, tmp_path):
        text = self._spread_text(gf2).replace("4 2 2 2", "4 2 3 2", 1)
        with pytest.raises(ValueError, match="header says q = 3"):
            fc.SubspaceCode.load(text)
        path = tmp_path / "q3.code"
        path.write_text(text)
        assert cli.main(["spectrum", "--code", str(path)]) == 2


class TestSpreadBound:
    def test_values(self):
        assert fc.max_partial_spread_size(2, 2, 7) == 41
        assert fc.max_partial_spread_size(2, 2, 4) == 5
        assert fc.max_partial_spread_size(2, 4, 10) == 65
        assert fc.max_partial_spread_size(2, 1, 3) == 7  # (q^n - q)/(q - 1) + 1

    def test_hypothesis_unmet(self):
        # h = 2 over GF(2) requires k > 3, so k = 3 gets no closed form
        with pytest.raises(HypothesisUnmet):
            fc.max_partial_spread_size(2, 3, 8)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            fc.max_partial_spread_size(2, 3, 2)


class TestOrbits:
    def test_fixed_space(self, gf2):
        p = fc.companion(fc.Poly(gf2, [1, 1, 1]))
        g = fc.block(gf2, [[fc.MatrixGF.identity(gf2, 2), None], [None, p]])
        group = fc.GroupElementSeq(g, 3)
        left = space(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        orbit = fc.orbit_code(left, group)
        assert len(orbit) == 1 and left in orbit
        assert fc.stabilizer_order(left, group) == 3

    def test_invariant_right_block(self, gf2):
        p = fc.companion(fc.Poly(gf2, [1, 1, 1]))
        g = fc.block(gf2, [[fc.MatrixGF.identity(gf2, 2), None], [None, p]])
        group = fc.GroupElementSeq(g, 3)
        right = space(gf2, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert len(fc.orbit_code(right, group)) == 1

    def test_trivial_group(self, gf2):
        group = fc.GroupElementSeq(fc.MatrixGF.identity(gf2, 4), 1)
        u = space(gf2, [[1, 1, 0, 0]])
        assert fc.stabilizer_order(u, group) == 1
        assert len(fc.orbit_code(u, group)) == 1

    def test_full_orbit_of_seed_hyperplane(self):
        params = fc.ConstructionParams.make(2, 2, 1, 2)
        group = fc.GroupElementSeq(fc.build_G_generator(params, 1), 7)
        seed = fc.subspace_of(fc.build_A(params, 1))
        orbit = fc.orbit_code(seed, group)
        assert len(orbit) == 7
        assert fc.stabilizer_order(seed, group) == 1

    def test_orbit_stabilizer_identity(self, gf2):
        rng = random.Random(3)
        p = fc.companion(fc.find_primitive_poly(gf2, 4))
        group = fc.GroupElementSeq(p, 15)
        for _ in range(10):
            rows = [[rng.randrange(2) for _ in range(4)] for _ in range(rng.randrange(1, 4))]
            if not any(any(r) for r in rows):
                continue
            u = space(gf2, rows)
            orbit = fc.orbit_code(u, group)
            assert len(orbit) * fc.stabilizer_order(u, group) == group.order

    @pytest.mark.parametrize("q,k", [(2, 4), (3, 2), (4, 2)])
    def test_one_walk_matches_direct_powers(self, q, k):
        # the orbit and the fixed points come from one walk over the group;
        # recount both from g**t computed afresh for every t
        field = fc.field_from_order(q)
        p = fc.companion(fc.find_primitive_poly(field, k))
        order = fc.matrix_order(p)
        group = fc.GroupElementSeq(p, order)
        rng = random.Random(q * k)
        for dim in range(1, k):
            rows = [[rng.randrange(q) for _ in range(k)] for _ in range(dim)]
            if fc.MatrixGF(field, rows).rank() != dim:
                continue
            u = space(field, rows)
            images = [u.transform(p**t) for t in range(1, order + 1)]
            assert fc.orbit_code(u, group) == fc.SubspaceCode(k, images)
            assert fc.stabilizer_order(u, group) == sum(w == u for w in images)

    def test_ambient_mismatch(self, gf2):
        group = fc.GroupElementSeq(fc.MatrixGF.identity(gf2, 3), 1)
        with pytest.raises(AmbientMismatch):
            fc.orbit_code(space(gf2, [[1, 0]]), group)

    def test_group_validation(self, gf2):
        p = fc.companion(fc.Poly(gf2, [1, 1, 1]))
        with pytest.raises(ValueError):
            fc.GroupElementSeq(p, 2)  # p**2 is not the identity
        assert fc.GroupElementSeq(p, fc.matrix_order(p)).order == 3


@st.composite
def gf2_subspace(draw, n=5):
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            min_size=1,
            max_size=n,
        )
    )
    gf2 = fc.field_make(2)
    m = fc.MatrixGF(gf2, rows, ncols=n)
    if m.rank() == 0:
        rows[0][0] = 1
        m = fc.MatrixGF(gf2, rows, ncols=n)
    return fc.subspace_of(m)


class TestDistanceProperties:
    @given(gf2_subspace(), gf2_subspace())
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_parity(self, u, v):
        d = fc.subspace_distance(u, v)
        assert d == fc.subspace_distance(v, u)
        assert d >= 0
        assert (d - u.dim - v.dim) % 2 == 0

    @given(gf2_subspace(), gf2_subspace(), gf2_subspace())
    @settings(max_examples=100, deadline=None)
    def test_triangle(self, u, v, w):
        duv = fc.subspace_distance(u, v)
        dvw = fc.subspace_distance(v, w)
        duw = fc.subspace_distance(u, w)
        assert duw <= duv + dvw

    @given(gf2_subspace(), gf2_subspace())
    @settings(max_examples=100, deadline=None)
    def test_distance_equivalent_forms(self, u, v):
        stack_rank = fc.vstack([u.canon, v.canon]).rank()
        inter = fc.intersection_dim(u, v)
        assert fc.subspace_distance(u, v) == 2 * stack_rank - u.dim - v.dim
        assert fc.subspace_distance(u, v) == u.dim + v.dim - 2 * inter
