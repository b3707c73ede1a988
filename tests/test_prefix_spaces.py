"""Prefix row spaces from one echelon pass, against a fresh RREF of every
prefix.

``flag_from_matrix`` makes a flag's normal form in one echelon pass over
the matrix's rows, and each part's key rows from it by back-substitution;
``subspace_of`` is the same pass over all rows.  The oracle in
``_checks.py`` reduces each prefix on its own with whole-matrix
Gauss-Jordan elimination (``rref_oracle``); the two must agree in canonical
generator, key, hash and equality, and fail with the same errors and
messages.

A flag built from a matrix makes no Subspace: its parts are made from
their key rows on first read.  ``check_lazy_parts`` compares those lazily
made parts with ``subspace_of`` and ``rref_oracle``, the flag's key with
``normal_form_oracle``, and checks that adjacent parts are nested; a
generator set and a dump and load of its full code must make no Subspace,
neither per row space nor per prefix, and the CLI construct path none at
all.
"""

from __future__ import annotations

import random

import pytest

import flagcodes as fc
from flagcodes import cli
from flagcodes.errors import RankDeficientPrefix, ZeroRank

from _checks import (
    SWEEP_CHOICES,
    assert_same_subspace,
    check_lazy_parts,
    check_parts_built,
    choice_ids,
    field_ops,
    key_rows_oracle,
    prefix_subspace_oracle,
    rref_oracle,
)

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


@pytest.mark.parametrize("qkhs,choice", SWEEP_CHOICES, ids=choice_ids(SWEEP_CHOICES))
def test_generator_entries_match_oracle(qkhs, choice):
    gen = fc.build_generator_set(fc.ConstructionParams.make(*qkhs, poly_choice=choice))
    for e in gen.entries:
        for t, part in zip(e.flag.type.dims, e.flag.parts):
            rank, want = prefix_subspace_oracle(e.flag.source, t)
            assert rank == t
            assert_same_subspace(part, want)
        assert_same_subspace(e.flag._part(-1), fc.subspace_of(e.flag.source))
        check_space(e.flag.source)


def _random_rows(field, rng, nrows, ncols, dependent=(), zero=()):
    """Random rows; a row index in ``dependent`` is a random combination of
    the rows before it, one in ``zero`` is all zero."""
    ops = field_ops(field)
    add, mul = ops.add, ops.mul
    rows: list[list[int]] = []
    for j in range(nrows):
        if j in zero:
            row = [0] * ncols
        elif j in dependent:
            row = [0] * ncols
            for earlier in rows:
                c = rng.randrange(field.q)
                row = [add(x, mul(c, y)) for x, y in zip(row, earlier)]
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


@pytest.mark.parametrize("field_args", FIELDS, ids=["GF2", "GF3", "GF4", "GF8", "GF9"])
def test_canon_made_on_first_read(field_args):
    field = fc.field_make(*field_args)
    rng = random.Random(31 + sum(field_args))
    for _ in range(40):
        n = rng.randrange(2, 7)
        w = _random_rows(field, rng, rng.randrange(1, n + 1), n)
        reduced, rank = rref_oracle(w)
        if rank == 0:
            continue
        space = fc.subspace_of(w)
        canon = space.canon
        assert canon == reduced.first_rows(rank)
        assert key_rows_oracle(canon) == space.key[1]
        # the key rows are the canon's stored rows, and canon is a view of
        # them made on each read: the space keeps no matrix
        assert canon._rows is space.key[1]
        assert canon == fc.MatrixGF(field, canon.int_rows(), ncols=n)
        assert not hasattr(space, "_canon")


def _counting(monkeypatch, name: str) -> list:
    """Record every matrix that MatrixGF.<name> is called on."""
    calls = []
    real = getattr(fc.MatrixGF, name)

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(fc.MatrixGF, name, counting)
    return calls


def test_flag_builds_make_no_rref(monkeypatch):
    params = fc.ConstructionParams.make(2, 2, 1, 4)
    rrefs = _counting(monkeypatch, "rref")
    ranks = _counting(monkeypatch, "rank")
    gen = fc.build_generator_set(params)
    # only the fixed full-rank checks of A_1..A_3, B_1..B_3 and M, however
    # many generator matrices (169) there are, and none by rref
    assert len(gen.entries) == 169
    assert len(ranks) == 7 and rrefs == []
    assert all((m.nrows, m.ncols) == (params.n - 1, params.n) for m in ranks)
    ranks.clear()
    tv = fc.TypeVector.full(params.n)
    for e in gen.entries:
        fc.flag_from_matrix(e.flag.source, tv)
        fc.subspace_of(e.flag.source)
    loaded = fc.load_flag_code(fc.dump_flag_code(gen.full))
    assert loaded == gen.full
    assert ranks == [] and rrefs == []


# GF(2), GF(3), GF(4), GF(5), GF(7), GF(9), GF(25)
LAZY_FIELDS = [(2,), (3,), (2, 2), (5,), (7,), (3, 2), (5, 2)]


@pytest.mark.parametrize("field_args", LAZY_FIELDS, ids=["GF2", "GF3", "GF4", "GF5", "GF7", "GF9", "GF25"])
def test_lazy_parts_of_random_matrices_match_oracle(field_args):
    field = fc.field_make(*field_args)
    rng = random.Random(71 + sum(field_args) * 3 + len(field_args))
    checked = 0
    while checked < 40:
        n = rng.randrange(2, 8)
        top = rng.randrange(1, n)
        dims = tuple(sorted(rng.sample(range(1, top + 1), rng.randrange(1, top + 1))))
        w = _random_rows(field, rng, rng.randrange(top, n + 1), n)
        if any(prefix_subspace_oracle(w, t)[0] != t for t in dims):
            continue
        flag = fc.flag_from_matrix(w, fc.TypeVector(n, dims))
        assert flag._parts is None  # no part is made until one is read
        check_lazy_parts(flag, w)
        check_parts_built(flag)
        checked += 1


@pytest.mark.parametrize("qkhs,choice", SWEEP_CHOICES, ids=choice_ids(SWEEP_CHOICES))
def test_lazy_parts_of_generator_entries_match_oracle(qkhs, choice):
    gen = fc.build_generator_set(fc.ConstructionParams.make(*qkhs, poly_choice=choice))
    for e in gen.entries:
        # the generator set made no part of any flag
        assert e.flag._parts is None
        check_lazy_parts(e.flag, e.flag.source)


@pytest.mark.parametrize("field_args", LAZY_FIELDS, ids=["GF2", "GF3", "GF4", "GF5", "GF7", "GF9", "GF25"])
def test_key_rows_live_in_the_parts(field_args):
    # key rows read before a part is made are stored nowhere; once the part
    # is made they are its own key rows, and a flag built from parts keeps
    # the parts it was given
    field = fc.field_make(*field_args)
    rng = random.Random(53 + sum(field_args))
    checked = 0
    while checked < 20:
        n = rng.randrange(2, 7)
        w = _random_rows(field, rng, n - 1, n)
        if prefix_subspace_oracle(w, n - 1)[0] != n - 1:
            continue
        flag = fc.flag_from_matrix(w, fc.TypeVector.full(n))
        assert not hasattr(flag, "_keys")
        before = [flag._key_rows(i) for i in range(flag.type.r)]
        assert flag._parts is None
        parts = flag.parts
        for i, part in enumerate(parts):
            assert part.key[1] == before[i]
            assert flag._key_rows(i) is part.key[1]
        rebuilt = fc.Flag(flag.type, parts)
        for i, part in enumerate(parts):
            assert rebuilt._part(i) is part
            assert rebuilt._key_rows(i) is part.key[1]
        checked += 1


def _counting_subspaces(monkeypatch) -> list:
    """Record every Subspace made, by its key."""
    made = []
    init = fc.Subspace.__init__

    def counting(self, field, ambient, rows):
        made.append((len(rows), rows))
        init(self, field, ambient, rows)

    monkeypatch.setattr(fc.Subspace, "__init__", counting)
    return made


def test_flag_builds_make_only_the_distinct_top_spaces(monkeypatch):
    params = fc.ConstructionParams.make(2, 2, 1, 4)
    made = _counting_subspaces(monkeypatch)
    gen = fc.build_generator_set(params)
    loaded = fc.load_flag_code(fc.dump_flag_code(gen.full))
    assert loaded == gen.full
    # the 169 distinct row spaces of the family are told apart by their
    # flags' top keys: no Subspace is made for them, nor for the 8 prefixes
    # of each flag, built or loaded
    assert len({e.flag._key_rows(-1) for e in gen.entries}) == 169
    assert made == []
    # a top part is made alone on its first read
    tops = [e.flag._part(-1) for e in gen.entries]
    assert made == [w.key for w in tops]
    assert sorted(made) == sorted(
        {prefix_subspace_oracle(e.flag.source, e.flag.source.nrows)[1].key for e in gen.entries}
    )


def test_construct_makes_no_subspace(monkeypatch, tmp_path):
    """The CLI construct path writes a full-type code from its flags' keys
    and source matrices: no Subspace is made, not even for the generator
    set's row spaces."""
    made = _counting_subspaces(monkeypatch)
    out = tmp_path / "full.code"
    argv = ["construct", "--q", "2", "--k", "2", "--h", "1", "--s", "4", "--family", "full",
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert made == []
    code = fc.load_flag_code(out.read_text())
    assert len(code) == 169
    assert made == []
