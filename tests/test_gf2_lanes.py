"""Many GF(2) chains normal-formed in one lane-packed elimination.

``matgf._GF2Lanes`` packs row r of every chain into one int, chain m in
lane m, and eliminates all lanes at once; ``flags._flags_from_matrices``
makes the flags of a batch of matrices on it, as ``build_generator_set``
and ``load_flag_code`` do.  Here its normal forms must be those of
``normal_form_oracle`` at every width on either side of a lane boundary
(8, 16, 32 and 64 bits), for batches of 1, 2 and 40 chains and for types
with levels that add several rows.  Past 64 columns a batch takes the
per-matrix route (``flag_from_matrix``, and ``_hyperplane_normal`` for
the normals), whose results must match the same oracles.  The first
rank-deficient matrix of a batch, wherever it stands, must raise what
``flag_from_matrix`` raises on it alone, and the batched hyperplane
normals must be ``normal_oracle``'s on every GF(2) generator set of the
standard sweep.  ``struct``, which
packs the lanes, is imported by the first batch, not by ``import
flagcodes``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import flagcodes as fc
from flagcodes.errors import AmbientMismatch, DimMismatch, RankDeficientPrefix
from flagcodes.flags import _flags_from_matrices
from flagcodes.matgf import _GF2Lanes
from flagcodes.subspace import _hyperplane_normal

from _checks import SWEEP_CHOICES, choice_ids, normal_form_oracle, normal_oracle

GF2 = fc.field_from_order(2)
# every width next to a lane boundary
WIDTHS = [1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]
BATCHES = [1, 2, 40]
GF2_SWEEP = [(qkhs, c) for qkhs, c in SWEEP_CHOICES if qkhs[0] == 2]


def _rank(rows) -> int:
    """The rank of GF(2) bitmask rows: each is cleared at the leading bit
    of every kept row, largest first, and kept if anything is left."""
    kept: list[int] = []
    for row in rows:
        for b in kept:
            row = min(row, row ^ b)
        if row:
            kept = sorted(kept + [row], reverse=True)
    return len(kept)


def _matrix(rng: random.Random, n: int, top: int, nrows: int) -> fc.MatrixGF:
    """A random ``nrows`` x ``n`` GF(2) matrix whose first ``top`` rows are
    independent."""
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(nrows))
        if _rank(rows[:top]) == top:
            return fc.MatrixGF._wrap(GF2, n, rows)


def _dims(rng: random.Random, top: int) -> tuple[int, ...]:
    """Up to four random levels ending at ``top``; from top = 3 up, some
    level adds several rows."""
    while True:
        dims = tuple(sorted(set(rng.sample(range(1, top), rng.randrange(min(top, 4))) + [top])))
        if top < 3 or any(hi - lo > 1 for lo, hi in zip((0, *dims), dims)):
            return dims


def _deficient(rng: random.Random, w: fc.MatrixGF, r: int) -> fc.MatrixGF:
    """``w`` with row ``r`` (0-based) replaced by a sum of rows before it
    (a zero row at r = 0)."""
    rows = list(w._rows)
    rows[r] = 0
    for j in rng.sample(range(r), rng.randrange(1, r + 1) if r else 0):
        rows[r] ^= rows[j]
    return fc.MatrixGF._wrap(GF2, w.ncols, tuple(rows))


@pytest.mark.parametrize("count", BATCHES)
@pytest.mark.parametrize("n", WIDTHS)
def test_forms_match_the_oracle_at_every_lane_width(n, count):
    rng = random.Random(100 * n + count)
    for top in sorted({n, max(1, n - 1), rng.randrange(1, n + 1)}):
        dims = _dims(rng, top)
        mats = [_matrix(rng, n, top, top + rng.randrange(2) * (n > top)) for _ in range(count)]
        want = [normal_form_oracle(w, dims) for w in mats]
        if n <= 64:
            lanes = _GF2Lanes([w._rows for w in mats], top, n)
            assert lanes.bad is None
            assert lanes.forms(dims, GF2) == want
        if top < n:
            tv = fc.TypeVector(n, dims)
            flags, lanes = _flags_from_matrices(mats, tv)
            assert (lanes is None) == (n > 64)
            assert flags == [fc.flag_from_matrix(w, tv) for w in mats]
            assert all(f.source is w and f.key == k for f, w, k in zip(flags, mats, want))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("n", [2, 9, 17, 33, 65])
def test_the_first_rank_deficient_matrix_raises_as_flag_from_matrix(n, where):
    # the reported matrix is the first in the batch, not the one that
    # fails at the earliest row: a later one fails at row 0
    rng = random.Random(n)
    tv = fc.TypeVector(n, _dims(rng, n - 1))
    top = n - 1
    mats = [_matrix(rng, n, top, top) for _ in range(40)]
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
    if n <= 64:
        assert _GF2Lanes([w._rows for w in mats], top, n).bad == at


def test_a_matrix_of_another_width_raises_in_its_place():
    rng = random.Random(5)
    tv = fc.TypeVector.full(9)
    mats = [_matrix(rng, 9, 8, 8) for _ in range(6)]
    wide = _matrix(rng, 10, 8, 8)
    deficient = _deficient(rng, mats[4], 3)
    with pytest.raises(AmbientMismatch, match="10-column matrix for ambient 9") as err:
        _flags_from_matrices(mats[:2] + [wide] + mats[2:4] + [deficient], tv)
    assert err.value.index == 2
    with pytest.raises(RankDeficientPrefix, match="first 4 rows have rank 3") as err:
        _flags_from_matrices(mats[:2] + [deficient, wide], tv)
    assert err.value.index == 2


def test_an_empty_batch_makes_no_flags():
    assert _flags_from_matrices([], fc.TypeVector.full(5)) == ([], None)


@pytest.mark.parametrize("count", BATCHES)
@pytest.mark.parametrize("n", WIDTHS[1:])
def test_normals_at_every_lane_width(n, count):
    rng = random.Random(7 * n + count)
    mats = [_matrix(rng, n, n - 1, n - 1) for _ in range(count)]
    if n <= 64:
        normals = _GF2Lanes([w._rows for w in mats], n - 1, n).normals()
    else:
        # the route of build_generator_set when no batch was made
        flags, lanes = _flags_from_matrices(mats, fc.TypeVector(n, (n - 1,)))
        assert lanes is None
        normals = [_hyperplane_normal(f._rows, n, GF2) for f in flags]
    # the RREF rows of the span, a valid input of _hyperplane_normal
    assert list(normals) == [_hyperplane_normal(normal_form_oracle(w, (n - 1,)), n, GF2) for w in mats]
    # over GF(2) the one nonzero vector orthogonal to every row
    assert all(c and not any((row & c).bit_count() & 1 for row in w._rows) for c, w in zip(normals, mats))
    if n <= 9:
        assert list(normals) == [normal_oracle(fc.subspace_of(w)) for w in mats]


def test_normals_need_a_hyperplane():
    rows = (_matrix(random.Random(1), 6, 4, 4)._rows,)
    with pytest.raises(DimMismatch, match="dim-4 subspace of GF.2.\\^6 is not a hyperplane"):
        _GF2Lanes(rows, 4, 6).normals()


@pytest.mark.parametrize("qkhs,choice", GF2_SWEEP, ids=choice_ids(GF2_SWEEP))
def test_batched_normals_of_every_gf2_generator_set(qkhs, choice):
    gen = fc.build_generator_set(fc.ConstructionParams.make(*qkhs, poly_choice=choice))
    assert [e.normal for e in gen.entries] == [normal_oracle(fc.subspace_of(e.flag.source)) for e in gen.entries]


def test_struct_is_imported_by_the_first_batch_only():
    # -S: no site module, so only the package's own imports are seen
    probe = (
        "import sys, json; import flagcodes as fc; before = 'struct' in sys.modules; "
        "fc.build_generator_set(fc.ConstructionParams.make(2, 2, 0, 2)); "
        "print(json.dumps([before, 'struct' in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True]
