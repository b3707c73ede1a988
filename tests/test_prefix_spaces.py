"""Prefix row spaces from one incremental elimination, against a fresh RREF
of every prefix.

``flag_from_matrix`` and ``subspace_of`` read every prefix subspace off a
single fully reduced basis that takes the matrix's rows one at a time.  The
oracle in ``_checks.py`` reduces each prefix on its own with whole-matrix
Gauss-Jordan elimination (``rref_oracle``); the two must agree in canonical
generator, key, pivot basis, hash and equality, and fail with the same
errors and messages.
"""

from __future__ import annotations

import random

import pytest

import flagcodes as fc
from flagcodes.errors import RankDeficientPrefix, ZeroRank

from _checks import assert_same_subspace, prefix_subspace_oracle

SWEEP = [(2, 2, 0, 2), (2, 2, 1, 2), (2, 3, 2, 2), (3, 2, 1, 2), (2, 2, 0, 3), (2, 2, 1, 3), (2, 2, 1, 4)]
# GF(2) has a single primitive quadratic, so these have no poly_choice 1
NO_SECOND_POLY = {(2, 2, 0, 2), (2, 2, 0, 3)}
SWEEP_CHOICES = [(qkhs, c) for qkhs in SWEEP for c in (0, 1) if not (c and qkhs in NO_SECOND_POLY)]

# GF(2), GF(3), GF(4), GF(8), GF(9)
FIELDS = [(2,), (3,), (2, 2), (2, 3), (3, 2)]


def check_flag(w: fc.MatrixGF, tv: fc.TypeVector) -> None:
    """flag_from_matrix against the oracle: equal parts, or the same
    RankDeficientPrefix at the first deficient type dimension."""
    for t in tv.dims:
        rank, _ = prefix_subspace_oracle(w, t)
        if rank != t:
            with pytest.raises(RankDeficientPrefix) as exc:
                fc.flag_from_matrix(w, tv)
            assert str(exc.value) == f"first {t} rows have rank {rank}"
            return
    flag = fc.flag_from_matrix(w, tv)
    for t, part in zip(tv.dims, flag.parts):
        assert_same_subspace(part, prefix_subspace_oracle(w, t)[1])


def check_space(w: fc.MatrixGF) -> None:
    """subspace_of against the oracle: the same space, or ZeroRank."""
    rank, want = prefix_subspace_oracle(w, w.nrows)
    if rank == 0:
        with pytest.raises(ZeroRank) as exc:
            fc.subspace_of(w)
        assert str(exc.value) == "the zero matrix spans no subspace"
        return
    assert_same_subspace(fc.subspace_of(w), want)


@pytest.mark.parametrize(
    "qkhs,choice", SWEEP_CHOICES, ids=["q{}k{}h{}s{}-pc{}".format(*t, c) for t, c in SWEEP_CHOICES]
)
def test_generator_entries_match_oracle(qkhs, choice):
    gen = fc.build_generator_set(fc.ConstructionParams.make(*qkhs, poly_choice=choice))
    for e in gen.entries:
        for t, part in zip(e.flag.type.dims, e.flag.parts):
            rank, want = prefix_subspace_oracle(e.matrix, t)
            assert rank == t
            assert_same_subspace(part, want)
        assert_same_subspace(e.space, fc.subspace_of(e.matrix))
        check_space(e.matrix)


def _random_rows(field, rng, nrows, ncols, dependent=(), zero=()):
    """Random rows; a row index in ``dependent`` is a random combination of
    the rows before it, one in ``zero`` is all zero."""
    rows: list[list[int]] = []
    for j in range(nrows):
        if j in zero:
            row = [0] * ncols
        elif j in dependent:
            row = [0] * ncols
            for earlier in rows:
                c = rng.randrange(field.q)
                row = [field.add(x, field.mul(c, y)) for x, y in zip(row, earlier)]
        else:
            row = [rng.randrange(field.q) for _ in range(ncols)]
        rows.append(row)
    return fc.MatrixGF(field, rows, ncols=ncols)


@pytest.mark.parametrize("field_args", FIELDS, ids=["GF2", "GF3", "GF4", "GF8", "GF9"])
def test_random_matrices_match_oracle(field_args):
    field = fc.field_make(*field_args)
    rng = random.Random(sum(field_args) * 101 + len(field_args))
    for _ in range(150):
        n = rng.randrange(2, 8)
        nrows = rng.randrange(0, n + 2)
        dependent = {j for j in range(nrows) if rng.random() < 0.2}
        zero = {j for j in range(nrows) if rng.random() < 0.1}
        w = _random_rows(field, rng, nrows, n, dependent, zero)
        check_space(w)
        top = min(nrows, n - 1)
        if top:
            dims = sorted(rng.sample(range(1, top + 1), rng.randrange(1, top + 1)))
            check_flag(w, fc.TypeVector(n, tuple(dims)))


@pytest.mark.parametrize("field_args", FIELDS, ids=["GF2", "GF3", "GF4", "GF8", "GF9"])
def test_dependent_rows_at_type_and_non_type_positions(field_args):
    field = fc.field_make(*field_args)
    rng = random.Random(7)
    tv = fc.TypeVector(6, (2, 4))
    # 0-based row 1 ends the type prefix of dimension 2, row 2 lies strictly
    # between the type dimensions, rows 4 and 5 come after the last one
    for dependent, error in [
        ({1}, "first 2 rows have rank 1"),
        ({2}, "first 4 rows have rank 3"),
        ({3}, "first 4 rows have rank 3"),
        ({4, 5}, None),
    ]:
        for _ in range(5):
            w = _random_rows(field, rng, 6, 6, dependent)
            # a random draw can be deficient by chance; retry until only
            # the planted dependency is
            while prefix_subspace_oracle(w, 6)[0] != 6 - len(dependent):
                w = _random_rows(field, rng, 6, 6, dependent)
            check_flag(w, tv)
            check_space(w)
            if error is None:
                fc.flag_from_matrix(w, tv)
            else:
                with pytest.raises(RankDeficientPrefix, match=f"^{error}$"):
                    fc.flag_from_matrix(w, tv)


@pytest.mark.parametrize("field_args", FIELDS, ids=["GF2", "GF3", "GF4", "GF8", "GF9"])
def test_zero_rows_and_empty_matrices(field_args):
    field = fc.field_make(*field_args)
    for ncols in (0, 1, 3):
        check_space(fc.MatrixGF(field, [], ncols=ncols))
        check_space(fc.MatrixGF.zeros(field, 2, ncols))
    with pytest.raises(ZeroRank, match="^the zero matrix spans no subspace$"):
        fc.subspace_of(fc.MatrixGF(field, [], ncols=3))
    # a zero first row fails the first type dimension
    w = fc.MatrixGF(field, [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(RankDeficientPrefix, match="^first 1 rows have rank 0$"):
        fc.flag_from_matrix(w, fc.TypeVector.full(4))
    check_flag(w, fc.TypeVector.full(4))
    check_flag(w, fc.TypeVector(4, (2, 3)))
    # zero rows after the last type dimension are harmless
    w = fc.MatrixGF(field, [[0, 1, 1, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    check_flag(w, fc.TypeVector(4, (1, 2)))
    check_space(w)
    check_space(fc.MatrixGF.identity(field, 4))


def _counting_rref(monkeypatch) -> list:
    """Record every matrix that MatrixGF.rref (and so rank()) is called on."""
    calls = []
    rref = fc.MatrixGF.rref

    def counting(self):
        calls.append(self)
        return rref(self)

    monkeypatch.setattr(fc.MatrixGF, "rref", counting)
    return calls


def test_flag_builds_make_no_rref(monkeypatch):
    params = fc.ConstructionParams.make(2, 2, 1, 4)
    calls = _counting_rref(monkeypatch)
    gen = fc.build_generator_set(params)
    # only the fixed full-rank checks of A_1..A_3, B_1..B_3 and M, however
    # many generator matrices (169) there are
    assert len(gen.entries) == 169
    assert len(calls) == 7
    assert all((m.nrows, m.ncols) == (params.n - 1, params.n) for m in calls)
    calls.clear()
    tv = fc.TypeVector.full(params.n)
    for e in gen.entries:
        fc.flag_from_matrix(e.matrix, tv)
        fc.subspace_of(e.matrix)
    loaded = fc.load_flag_code(fc.dump_flag_code(gen.full))
    assert loaded == gen.full
    assert calls == []
