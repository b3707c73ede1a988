"""Many GF(q) chains, 2 < q <= 16, normal-formed in one byte-sliced
elimination.

``matgf._GFqSlices`` keeps entry (r, c) of every chain in one byte of one
int, chain m in byte m, and runs each field operation on all chains at
once through one 256-byte table; ``flags._flags_from_matrices`` makes the
flags of a batch of matrices on it, as ``build_generator_set`` and
``load_flag_code`` do.  Here its normal forms must be those of
``normal_form_oracle`` over GF(3), GF(4), GF(5), GF(7), GF(8), GF(9) and
GF(16) at n = 2..9, for batches of 1, 2, 5 and 40 chains and for types
with levels that add several rows.  The first rank-deficient matrix of a
batch, wherever it stands, must raise what ``flag_from_matrix`` raises on
it alone, and the batched hyperplane normals must be ``normal_oracle``'s
on the GF(q <= 16) generator sets of the standard sweep and the
benchmark.  A field past GF(16), or a batch over two moduli of one order,
takes one ``flag_from_matrix`` per matrix.
"""

from __future__ import annotations

import random

import pytest

import flagcodes as fc
from flagcodes import flags as flags_module
from flagcodes.errors import AmbientMismatch, DimMismatch, RankDeficientPrefix
from flagcodes.flags import _flags_from_matrices
from flagcodes.matgf import _GFqSlices
from flagcodes.subspace import _hyperplane_normal

from _checks import SWEEP_CHOICES, choice_ids, normal_form_oracle, normal_oracle, poly_choices

ORDERS = [3, 4, 5, 7, 8, 9, 16]
BATCHES = [1, 2, 5, 40]
# the generator sets over 2 < q <= 16: the standard sweep's and the
# verify-nonbinary benchmark's, at each poly choice they have
DESK = [(qkhs, c) for qkhs, c in SWEEP_CHOICES if 2 < qkhs[0] <= 16] + [
    (qkhs, c) for qkhs in [(3, 2, 0, 3), (4, 2, 1, 2), (9, 2, 0, 2)] for c in poly_choices(*qkhs)
]


def _prefix_ranks_full(w: fc.MatrixGF, top: int) -> bool:
    return all(w.first_rows(t).rank() == t for t in range(1, top + 1))


def _matrix(field, rng: random.Random, n: int, top: int, nrows: int) -> fc.MatrixGF:
    """A random ``nrows`` x ``n`` matrix over ``field`` whose first ``top``
    rows are independent."""
    while True:
        w = fc.MatrixGF(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(nrows)], ncols=n)
        if _prefix_ranks_full(w, top):
            return w


def _dims(rng: random.Random, top: int) -> tuple[int, ...]:
    """Up to four random levels ending at ``top``; from top = 3 up, some
    level adds several rows."""
    while True:
        dims = tuple(sorted(set(rng.sample(range(1, top), rng.randrange(min(top, 4))) + [top])))
        if top < 3 or any(hi - lo > 1 for lo, hi in zip((0, *dims), dims)):
            return dims


def _deficient(rng: random.Random, w: fc.MatrixGF, r: int) -> fc.MatrixGF:
    """``w`` with row ``r`` (0-based) replaced by a combination, with
    random nonzero coefficients, of rows before it (a zero row at r = 0)."""
    field = w.field
    rows = [list(row) for row in w.int_rows()]
    rows[r] = [0] * w.ncols
    for j in rng.sample(range(r), rng.randrange(1, r + 1) if r else 0):
        a = rng.randrange(1, field.q)
        rows[r] = [field.add(x, field.mul(a, y)) for x, y in zip(rows[r], rows[j])]
    return fc.MatrixGF(field, rows, ncols=w.ncols)


@pytest.mark.parametrize("count", BATCHES)
@pytest.mark.parametrize("q", ORDERS)
def test_forms_match_the_oracle(q, count):
    field = fc.field_from_order(q)
    rng = random.Random(100 * q + count)
    pivots_not_one = 0
    for n in range(2, 10):
        for top in sorted({n - 1, rng.randrange(1, n + 1)}):
            dims = _dims(rng, top)
            mats = [_matrix(field, rng, n, top, top + rng.randrange(2) * (n > top)) for _ in range(count)]
            pivots_not_one += sum(next(x for x in w._rows[0] if x) != 1 for w in mats)
            lanes = _GFqSlices([w._rows for w in mats], top, n, field)
            assert lanes.bad is None
            assert lanes.forms(dims, field) == [normal_form_oracle(w, dims) for w in mats]
            if top < n:
                tv = fc.TypeVector(n, dims)
                flags, batch = _flags_from_matrices(mats, tv)
                assert isinstance(batch, _GFqSlices)
                assert flags == [fc.flag_from_matrix(w, tv) for w in mats]
                assert all(f.source is w and f.field is field for f, w in zip(flags, mats))
    # rows are scaled: many a first row has a pivot value other than 1
    assert pivots_not_one >= count


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("n", [2, 5, 9])
@pytest.mark.parametrize("q", [3, 4, 9, 16])
def test_the_first_rank_deficient_matrix_raises_as_flag_from_matrix(q, n, where):
    # the reported matrix is the first in the batch, not the one that
    # fails at the earliest row: a later one fails at row 0
    field = fc.field_from_order(q)
    rng = random.Random(10 * q + n)
    tv = fc.TypeVector(n, _dims(rng, n - 1))
    top = n - 1
    mats = [_matrix(field, rng, n, top, top) for _ in range(40)]
    at = {"first": 0, "middle": 20, "last": 39}[where]
    mats[at] = _deficient(rng, mats[at], top - 1)
    if at < 39:
        mats[at + 1 + rng.randrange(39 - at)] = _deficient(rng, mats[at], 0)
    with pytest.raises(RankDeficientPrefix) as alone:
        fc.flag_from_matrix(mats[at], tv)
    with pytest.raises(RankDeficientPrefix) as batched:
        _flags_from_matrices(mats, tv)
    assert str(batched.value) == str(alone.value)
    assert batched.value.index == at
    assert _GFqSlices([w._rows for w in mats], top, n, field).bad == at


@pytest.mark.parametrize("count", BATCHES)
@pytest.mark.parametrize("q", ORDERS)
def test_normals_of_random_hyperplanes(q, count):
    field = fc.field_from_order(q)
    rng = random.Random(7 * q + count)
    for n in range(2, 10):
        mats = [_matrix(field, rng, n, n - 1, n - 1) for _ in range(count)]
        normals = _GFqSlices([w._rows for w in mats], n - 1, n, field).normals()
        # the RREF rows of the span, a valid input of _hyperplane_normal
        assert list(normals) == [_hyperplane_normal(normal_form_oracle(w, (n - 1,)), n, field) for w in mats]
        if q ** (n - 1) <= 1000:
            assert list(normals) == [normal_oracle(fc.subspace_of(w)) for w in mats]


def test_normals_need_a_hyperplane():
    field = fc.field_from_order(9)
    rows = (_matrix(field, random.Random(1), 6, 4, 4)._rows,)
    with pytest.raises(DimMismatch, match=r"dim-4 subspace of GF\(3\^2\)\^6 is not a hyperplane"):
        _GFqSlices(rows, 4, 6, field).normals()


@pytest.mark.parametrize("qkhs,choice", DESK, ids=choice_ids(DESK))
def test_batched_normals_of_every_desk_generator_set(qkhs, choice, monkeypatch):
    made = []
    real = flags_module._GFqSlices

    def recording(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(flags_module, "_GFqSlices", recording)
    gen = fc.build_generator_set(fc.ConstructionParams.make(*qkhs, poly_choice=choice))
    assert len(made) == 1 and made[0].size == len(gen.entries)
    assert [e.normal for e in gen.entries] == [normal_oracle(fc.subspace_of(e.flag.source)) for e in gen.entries]


@pytest.mark.parametrize("q", [17, 25])
def test_a_field_past_gf16_takes_one_flag_from_matrix_per_matrix(q, monkeypatch):
    def refused(*args):
        raise AssertionError("a byte-sliced batch over GF(q > 16)")

    monkeypatch.setattr(flags_module, "_GFqSlices", refused)
    field = fc.field_from_order(q)
    rng = random.Random(q)
    tv = fc.TypeVector.full(4)
    mats = [_matrix(field, rng, 4, 3, 3) for _ in range(5)]
    flags, batch = _flags_from_matrices(mats, tv)
    assert batch is None
    assert flags == [fc.flag_from_matrix(w, tv) for w in mats]
    gen = fc.build_generator_set(fc.ConstructionParams.make(q, 1, 0, 2))
    assert len(gen.entries) == q + 1


def test_a_mixed_modulus_batch_is_refused_not_merged():
    tv = fc.TypeVector.full(5)
    rng = random.Random(3)
    plain = fc.field_from_order(9)
    other = fc.field_from_order(9, [2, 1, 1])  # x^2 + x + 2
    mats = [_matrix(plain, rng, 5, 4, 4) for _ in range(4)]
    mats.append(fc.MatrixGF(other, mats[0].int_rows()))
    assert _prefix_ranks_full(mats[-1], 4)
    flags, batch = _flags_from_matrices(mats, tv)
    assert batch is None
    assert [f.field.modulus for f in flags] == [plain.modulus] * 4 + [other.modulus]
    # one file, two moduli: each matrix is read over its own header's field
    text = fc.dump_flag_code(fc.FlagCode(tv, flags[:4]))
    lines = text.splitlines()
    last = max(i for i, ln in enumerate(lines) if "GF(" in ln)
    lines[last] = lines[last].replace("GF(3^2)", "GF(3^2,x^2+x+2)")
    with pytest.raises(AmbientMismatch) as err:
        fc.load_flag_code("\n".join(lines) + "\n")
    assert "x^2+x+2" in str(err.value) and "x^2+1" in str(err.value)
