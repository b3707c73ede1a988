from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagcodes as fc
from flagcodes import cli
from flagcodes import field as field_module
from flagcodes.errors import (
    AmbientMismatch,
    EllOutOfRange,
    IndexOutOfRange,
    NotASubsequence,
    RankDeficientPrefix,
    TooFewFlags,
    TooFewRows,
    TypeMismatch,
)


def full_flag(field, rows, n):
    return fc.flag_from_matrix(fc.MatrixGF(field, rows, ncols=n), fc.TypeVector.full(n))


class TestTypeVector:
    def test_full(self):
        assert fc.TypeVector.full(5).dims == (1, 2, 3, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            fc.TypeVector(4, (1, 1, 2))
        with pytest.raises(ValueError):
            fc.TypeVector(4, (0, 1))
        with pytest.raises(ValueError):
            fc.TypeVector(4, (1, 4))
        with pytest.raises(ValueError):
            fc.TypeVector(4, ())

    def test_make_sorts_and_dedupes(self):
        assert fc.TypeVector.make(7, [5, 1, 2, 5]).dims == (1, 2, 5)

    def test_subsequence(self):
        big = fc.TypeVector(7, (1, 2, 3, 5, 6))
        assert fc.TypeVector(7, (1, 5)).is_subsequence_of(big)
        assert not fc.TypeVector(7, (1, 4)).is_subsequence_of(big)


class TestAbIndices:
    def test_left_only(self):
        ab = fc.ab_indices(fc.TypeVector(7, (1, 2, 3)))
        assert (ab.a, ab.b) == (3, None)

    def test_right_only(self):
        ab = fc.ab_indices(fc.TypeVector(7, (5, 6)))
        assert (ab.a, ab.b) == (None, 1)

    def test_middle_hit(self):
        ab = fc.ab_indices(fc.TypeVector.full(4))
        assert (ab.a, ab.b) == (2, 2)

    def test_adjacent(self):
        ab = fc.ab_indices(fc.TypeVector(7, (1, 2, 5, 6)))
        assert (ab.a, ab.b) == (2, 3)
        assert ab.b == ab.a + 1

    def test_invariant(self):
        with pytest.raises(ValueError):
            fc.AbIndices(None, None)


class TestFlagFromMatrix:
    def test_standard_flag(self, gf2):
        w = fc.MatrixGF.identity(gf2, 4).first_rows(3)
        flag = fc.flag_from_matrix(w, fc.TypeVector.full(4))
        assert [p.dim for p in flag.parts] == [1, 2, 3]
        assert flag.parts[0].canon.int_rows() == ((1, 0, 0, 0),)

    def test_anti_diagonal(self, gf2):
        m = fc.MatrixGF(gf2, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
        flag = fc.flag_from_matrix(m, fc.TypeVector.full(4))
        # prefixes span the last j coordinates
        for j, part in enumerate(flag.parts, start=1):
            expected = fc.MatrixGF.identity(gf2, 4).rows_after(4 - j)
            assert part == fc.subspace_of(expected)

    def test_rank_deficient(self, gf2):
        w = fc.MatrixGF(gf2, [[1, 0, 1, 0], [1, 0, 1, 0], [0, 1, 0, 0]])
        with pytest.raises(RankDeficientPrefix):
            fc.flag_from_matrix(w, fc.TypeVector.full(4))

    def test_too_few_rows(self, gf2):
        w = fc.MatrixGF(gf2, [[1, 0, 0, 0]])
        with pytest.raises(TooFewRows):
            fc.flag_from_matrix(w, fc.TypeVector(4, (1, 2)))

    def test_nesting_reverified(self, gf2):
        a = fc.subspace_of(fc.MatrixGF(gf2, [[1, 0, 0, 0]]))
        b = fc.subspace_of(fc.MatrixGF(gf2, [[0, 1, 0, 0], [0, 0, 1, 0]]))
        with pytest.raises(RankDeficientPrefix):
            fc.Flag(fc.TypeVector(4, (1, 2)), [a, b])

    @pytest.mark.parametrize(
        "field_args", [(2,), (3,), (2, 2), (5,), (7,), (3, 2), (5, 2)],
        ids=["GF2", "GF3", "GF4", "GF5", "GF7", "GF9", "GF25"],
    )
    def test_non_nested_parts_sharing_a_pivot_raise(self, field_args):
        # the lower row has its leading entry in a pivot column of the upper
        # part, so clearing that column leaves a nonzero remainder
        field = fc.field_make(*field_args)
        lower = fc.subspace_of(fc.MatrixGF(field, [[1, 1, 0, 0]]))
        upper = fc.subspace_of(fc.MatrixGF(field, [[1, 0, 0, 0], [0, 0, 1, 1]]))
        assert not upper.contains(lower)
        with pytest.raises(RankDeficientPrefix, match="not inside the next"):
            fc.Flag(fc.TypeVector(4, (1, 2)), [lower, upper])
        inside = fc.subspace_of(fc.MatrixGF(field, [[1, 0, 1, 1]]))
        assert upper.contains(inside)
        assert fc.Flag(fc.TypeVector(4, (1, 2)), [inside, upper]).parts == (inside, upper)

    def test_source_is_not_a_parameter(self, gf2):
        # a source spanning other parts would be dumped in their place
        tv = fc.TypeVector(3, (1, 2))
        w = fc.MatrixGF(gf2, [[1, 0, 0], [0, 1, 0]])
        parts = [fc.subspace_of(w.first_rows(1)), fc.subspace_of(w)]
        other = fc.MatrixGF(gf2, [[0, 0, 1], [0, 1, 0]])
        with pytest.raises(TypeError):
            fc.Flag(tv, parts, source=other)
        flag = fc.Flag(tv, parts)
        assert flag.source is None
        assert flag == fc.flag_from_matrix(w, tv)
        assert fc.load_flag(fc.dump_flag(flag)) == flag
        code = fc.FlagCode(tv, [flag])
        assert fc.load_flag_code(fc.dump_flag_code(code)) == code


class TestFieldIdentity:
    """GF(8) under two moduli: the same rows span different flags."""

    def _pair(self):
        f1 = fc.field_make(2, 3)
        f2 = fc.field_make(2, 3, [1, 0, 1, 1])
        assert f1 != f2
        rows = [[1, 0, 0], [0, 1, 0]]
        tv = fc.TypeVector.full(3)
        return tv, fc.flag_from_matrix(fc.MatrixGF(f1, rows), tv), fc.flag_from_matrix(
            fc.MatrixGF(f2, rows), tv
        )

    def test_flags_over_different_moduli_differ(self):
        tv, a, b = self._pair()
        assert a.key == b.key  # the sort key stays field-free
        assert a.field != b.field
        assert a != b and hash(a) != hash(b)
        assert len({a, b}) == 2

    def test_flag_rejects_parts_over_two_fields(self, gf2, gf4):
        tv = fc.TypeVector(4, (1, 2))
        lower = fc.subspace_of(fc.MatrixGF(gf2, [[1, 0, 0, 0]]))
        upper = fc.subspace_of(fc.MatrixGF(gf4, [[1, 0, 0, 0], [0, 1, 0, 0]]))
        # as rows of codes the line lies in the plane: only the field check refuses it
        assert lower.canon.int_rows()[0] == upper.canon.int_rows()[0]
        with pytest.raises(AmbientMismatch, match=r"over GF\(2\^2\) \(modulus .* over GF\(2\) \(modulus"):
            fc.Flag(tv, [lower, upper])
        # GF(8) under two moduli: equal codes, different fields
        f1 = fc.field_make(2, 3)
        f2 = fc.field_make(2, 3, [1, 0, 1, 1])
        lower = fc.subspace_of(fc.MatrixGF(f1, [[1, 0, 0, 0]]))
        upper = fc.subspace_of(fc.MatrixGF(f2, [[1, 0, 0, 0], [0, 1, 0, 0]]))
        with pytest.raises(AmbientMismatch, match="modulus"):
            fc.Flag(tv, [lower, upper])

    def test_flag_code_rejects_mixed_fields(self):
        tv, a, b = self._pair()
        with pytest.raises(AmbientMismatch, match="modulus"):
            fc.FlagCode(tv, [a, b])
        assert len(fc.FlagCode(tv, [a, a])) == 1


class TestFlagDistance:
    def test_zero(self, gf2):
        f = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        assert fc.flag_distance(f, f) == 0

    def test_coordinate_vs_reversed(self, gf2):
        f = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        g = full_flag(gf2, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], 4)
        # componentwise 2 + 4 + 2
        assert fc.flag_distance(f, g) == 8

    def test_single_component_reduces_to_subspace_distance(self, gf2):
        tv = fc.TypeVector(4, (2,))
        u = fc.MatrixGF(gf2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        v = fc.MatrixGF(gf2, [[0, 0, 1, 0], [0, 0, 0, 1]])
        fu = fc.flag_from_matrix(u, tv)
        fv = fc.flag_from_matrix(v, tv)
        assert fc.flag_distance(fu, fv) == fc.subspace_distance(
            fc.subspace_of(u), fc.subspace_of(v)
        )

    def test_type_mismatch(self, gf2):
        f = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        g = fc.flag_from_matrix(fc.MatrixGF.identity(gf2, 4).first_rows(2), fc.TypeVector(4, (1, 2)))
        with pytest.raises(TypeMismatch):
            fc.flag_distance(f, g)


class TestMaxFlagDistance:
    def test_full_small(self):
        assert fc.max_flag_distance(fc.TypeVector.full(4)) == 8

    def test_admissible_type(self):
        assert fc.max_flag_distance(fc.TypeVector(7, (1, 2, 5, 6))) == 12

    def test_single_middle(self):
        assert fc.max_flag_distance(fc.TypeVector(6, (3,))) == 6

    def test_full_growth(self):
        assert fc.max_flag_distance(fc.TypeVector.full(8)) == 32


class TestCodeOps:
    def make_pair(self, gf2):
        f = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        g = full_flag(gf2, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], 4)
        return f, g

    def test_two_flag_code(self, gf2):
        f, g = self.make_pair(gf2)
        code = fc.FlagCode(f.type, [f, g])
        assert fc.code_flag_min_distance(code) == fc.flag_distance(f, g)

    def test_too_few(self, gf2):
        f, _ = self.make_pair(gf2)
        with pytest.raises(TooFewFlags):
            fc.code_flag_min_distance(fc.FlagCode(f.type, [f]))

    def test_dedupe(self, gf2):
        f, g = self.make_pair(gf2)
        same = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        assert len(fc.FlagCode(f.type, [f, g, same])) == 2

    def test_projected(self, gf2):
        f, g = self.make_pair(gf2)
        code = fc.FlagCode(f.type, [f, g])
        proj = fc.projected_code(code, 1)
        assert len(proj) == 2 and proj.constant_dim == 1
        assert len(fc.projected_code_at_dim(code, 2)) <= len(code)
        with pytest.raises(IndexOutOfRange):
            fc.projected_code(code, 4)

    def test_singleton_projection(self, gf2):
        f, _ = self.make_pair(gf2)
        code = fc.FlagCode(f.type, [f])
        assert len(fc.projected_code(code, 2)) == 1

    def test_cardinality_consistency(self, gf2):
        f, g = self.make_pair(gf2)
        assert fc.is_cardinality_consistent(fc.FlagCode(f.type, [f]))
        assert fc.is_cardinality_consistent(fc.FlagCode(f.type, [f, g]))
        shared_first = full_flag(gf2, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 4)
        assert not fc.is_cardinality_consistent(fc.FlagCode(f.type, [f, shared_first]))


class TestClassify:
    def test_shared_components_give_general(self, gf2):
        f = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        g = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], 4)
        code = fc.FlagCode(f.type, [f, g])
        cls = fc.classify(code)
        assert cls.min_distance == 2 and cls.max_distance == 8
        assert cls.deficit == 3 and cls.label == "general(3)"

    def test_optimum_pair(self, gf2):
        f = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        g = full_flag(gf2, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], 4)
        code = fc.FlagCode(f.type, [f, g])
        cls = fc.classify(code)
        assert cls.label == "optimum" and cls.is_optimum
        assert fc.optimum_check_ab(code) is True

    def test_ab_check_false_when_a_projection_collapses(self, gf2):
        # the two flags share their 2-dimensional component, which is the
        # a-indexed projection on the full type of GF(2)^4
        f = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        g = full_flag(gf2, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], 4)
        code = fc.FlagCode(f.type, [f, g])
        assert fc.optimum_check_ab(code) is False
        assert not fc.classify(code).is_optimum

    def test_too_few(self, gf2):
        f = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        with pytest.raises(TooFewFlags):
            fc.classify(fc.FlagCode(f.type, [f]))


class TestSubsequence:
    def test_identity_restriction(self, gf2):
        f = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        g = full_flag(gf2, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], 4)
        code = fc.FlagCode(f.type, [f, g])
        assert fc.subsequence_code(code, f.type) == code

    def test_first_component(self, gf2):
        f = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        g = full_flag(gf2, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], 4)
        code = fc.FlagCode(f.type, [f, g])
        sub = fc.subsequence_code(code, fc.TypeVector(4, (1,)))
        assert len(sub) == 2
        assert {fl.parts[0] for fl in sub} == {f.parts[0], g.parts[0]}

    def test_merging(self, gf2):
        f = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        g = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], 4)
        code = fc.FlagCode(f.type, [f, g])
        sub = fc.subsequence_code(code, fc.TypeVector(4, (1, 2)))
        assert len(sub) == 1

    def test_not_a_subsequence(self, gf2):
        f = fc.flag_from_matrix(
            fc.MatrixGF.identity(gf2, 4).first_rows(2), fc.TypeVector(4, (1, 2))
        )
        code = fc.FlagCode(f.type, [f])
        with pytest.raises(NotASubsequence):
            fc.subsequence_code(code, fc.TypeVector(4, (1, 3)))


class TestSplit:
    def test_full_n8(self):
        tv = fc.TypeVector.full(8)
        inner, outer = fc.split_type(tv, 1)
        assert inner.dims == (4,)
        assert outer.dims == (1, 2, 3, 5, 6, 7)
        assert fc.max_flag_distance(tv) == 32
        assert fc.max_flag_distance(inner) == 8
        assert fc.max_flag_distance(outer) == 24
        assert fc.distance_decomposition_check(tv, 1)

    def test_admissible_n7(self):
        tv = fc.TypeVector(7, (1, 2, 5, 6))
        inner, outer = fc.split_type(tv, 1)
        assert inner.dims == (2, 5)
        assert outer.dims == (1, 6)
        assert fc.max_flag_distance(inner) == 8
        assert fc.max_flag_distance(outer) == 4
        assert fc.distance_decomposition_check(tv, 1)  # 12 == 8 + 4

    def test_max_depth(self):
        tv = fc.TypeVector.full(8)
        assert fc.distance_decomposition_check(tv, 3)

    def test_one_sided(self):
        left = fc.TypeVector(9, (1, 2, 3))  # only a exists
        assert fc.distance_decomposition_check(left, 2)
        right = fc.TypeVector(9, (6, 7, 8))  # only b exists
        assert fc.distance_decomposition_check(right, 2)

    def test_ell_out_of_range(self):
        tv = fc.TypeVector.full(8)
        with pytest.raises(EllOutOfRange):
            fc.split_type(tv, 0)
        with pytest.raises(EllOutOfRange):
            fc.split_type(tv, 4)


class TestAdmissibleType:
    def test_examples(self):
        assert fc.admissible_type_check(fc.TypeVector(7, (1, 2, 5, 6)), 2)
        assert not fc.admissible_type_check(fc.TypeVector(7, (1, 2, 3, 5, 6)), 2)
        assert fc.admissible_type_check(fc.TypeVector(4, (2,)), 2)
        assert not fc.admissible_type_check(fc.TypeVector(7, (1, 5, 6)), 2)  # k missing


class TestSerialization:
    def test_flag_prefix_form(self, gf2):
        f = full_flag(gf2, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], 4)
        text = fc.dump_flag(f)
        assert text.splitlines()[0] == "type 1,2,3"
        assert fc.load_flag(text) == f

    def test_flag_component_form(self, gf2):
        tv = fc.TypeVector(4, (1, 3))
        parts = [
            fc.subspace_of(fc.MatrixGF(gf2, [[1, 0, 0, 0]])),
            fc.subspace_of(fc.MatrixGF.identity(gf2, 4).first_rows(3)),
        ]
        f = fc.Flag(tv, parts)  # no source matrix
        assert fc.load_flag(fc.dump_flag(f)) == f

    def test_text_after_the_flag_is_rejected(self, gf2):
        f = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        g = full_flag(gf2, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], 4)
        with pytest.raises(ValueError, match="text after the flag"):
            fc.load_flag(fc.dump_flag(f) + fc.dump_flag(g))
        # trailing blank lines are not text
        assert fc.load_flag(fc.dump_flag(f) + "\n\n") == f

    def test_flag_code_roundtrip(self, gf2):
        f = full_flag(gf2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        g = full_flag(gf2, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], 4)
        code = fc.FlagCode(f.type, [f, g])
        assert fc.load_flag_code(fc.dump_flag_code(code)) == code

    def test_construction_roundtrip(self):
        params = fc.ConstructionParams.make(2, 2, 0, 2)
        code = fc.build_full_flag_code(fc.build_generator_set(params))
        assert fc.load_flag_code(fc.dump_flag_code(code)) == code

    @staticmethod
    def _small_code_text() -> str:
        gen = fc.build_generator_set(fc.ConstructionParams.make(2, 2, 0, 2))
        text = fc.dump_flag_code(fc.build_full_flag_code(gen))
        assert text.splitlines()[0] == "flagcode 4 2 5"
        return text

    def test_text_after_the_declared_flags_is_rejected(self, tmp_path):
        text = self._small_code_text().replace("flagcode 4 2 5", "flagcode 4 2 4", 1)
        with pytest.raises(ValueError, match="text after the 4 flags"):
            fc.load_flag_code(text)
        path = tmp_path / "short.code"
        path.write_text(text)
        assert cli.main(["spectrum", "--code", str(path)]) == 2

    def test_header_q_must_match_the_field(self, tmp_path):
        text = self._small_code_text().replace("flagcode 4 2 5", "flagcode 4 3 5", 1)
        with pytest.raises(ValueError, match="header says q = 3"):
            fc.load_flag_code(text)
        path = tmp_path / "q3.code"
        path.write_text(text)
        assert cli.main(["spectrum", "--code", str(path)]) == 2

    def test_a_flag_written_twice_is_refused(self, tmp_path):
        text = self._small_code_text()
        first = "".join(text.splitlines(keepends=True)[2:6])
        text = text.replace("flagcode 4 2 5", "flagcode 4 2 6", 1) + first
        with pytest.raises(ValueError, match="declares 6 flags, but 5 are distinct"):
            fc.load_flag_code(text)
        path = tmp_path / "twice.code"
        path.write_text(text)
        assert cli.main(["spectrum", "--code", str(path)]) == 2

    def test_a_negative_count_is_refused(self, tmp_path):
        text = "flagcode 4 2 -1\ntype 1,2,3\n"
        with pytest.raises(ValueError, match="declares -1 flags"):
            fc.load_flag_code(text)
        path = tmp_path / "negative.code"
        path.write_text(text)
        assert cli.main(["spectrum", "--code", str(path)]) == 2

    @pytest.mark.parametrize("q", [4, 9])
    def test_each_field_token_is_parsed_once(self, q, monkeypatch):
        gen = fc.build_generator_set(fc.ConstructionParams.make(q, 2, 0, 2))
        text = fc.dump_flag_code(fc.build_full_flag_code(gen))
        builds = []
        real = field_module.field_make

        def counting_field_make(*args):
            builds.append(args)
            return real(*args)

        field_module.parse_field_name.cache_clear()
        monkeypatch.setattr(field_module, "field_make", counting_field_make)
        code = fc.load_flag_code(text)
        assert len(code) == q**2 + 1
        assert len(builds) == 1
        assert len({id(f.field) for f in code}) == 1


@st.composite
def random_full_flag_pair(draw):
    n = draw(st.integers(3, 5))
    rng = random.Random(draw(st.integers(0, 2**30)))
    gf2 = fc.field_make(2)

    def full_rank_matrix():
        while True:
            m = fc.MatrixGF(
                gf2,
                [[rng.randrange(2) for _ in range(n)] for _ in range(n - 1)],
                ncols=n,
            )
            if all(m.first_rows(j).rank() == j for j in range(1, n)):
                return m

    tv = fc.TypeVector.full(n)
    return (
        fc.flag_from_matrix(full_rank_matrix(), tv),
        fc.flag_from_matrix(full_rank_matrix(), tv),
    )


class TestFlagDistanceProperties:
    @given(random_full_flag_pair())
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_symmetric(self, pair):
        f, g = pair
        d = fc.flag_distance(f, g)
        assert 0 <= d <= fc.max_flag_distance(f.type)
        assert d == fc.flag_distance(g, f)
        assert (d == 0) == (f == g)
