"""The value semantics of the package's record classes.

Each record compares by its fields, hashes by them when it is frozen, refuses
assignment when it is frozen, prints a ``Name(field=value, ...)`` repr, gets
fresh mutable defaults per instance, and survives ``copy`` and ``pickle``.
The records are plain classes, so importing the package loads none of the
modules that ``dataclasses`` and ``typing`` bring in.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import flagcodes as fc

P220 = fc.ConstructionParams.make(2, 2, 0, 2)
GEN220 = fc.build_generator_set(P220)


FIELDS = {
    fc.ConstructionParams: ("field", "k", "h", "s", "poly_choice"),
    fc.GeneratorEntry: ("kind", "index", "power", "flag", "normal"),
    fc.TypeVector: ("n", "dims"),
    fc.AbIndices: ("a", "b"),
    fc.Classification: ("min_distance", "max_distance", "deficit"),
    fc.GroupElementSeq: ("generator", "order"),
    fc.Poly: ("field", "coeffs"),
}


def _records():
    """(record, an equal record built afresh, a record differing in one
    field) for each frozen record class."""
    entry = GEN220.entries[0]
    g = GEN220.families[0][0]
    return [
        (P220, fc.ConstructionParams(fc.field_make(2), 2, 0, 2),
         fc.ConstructionParams.make(2, 2, 0, 2, poly_choice=1)),
        (entry, fc.GeneratorEntry(entry.kind, entry.index, entry.power, entry.flag, entry.normal),
         fc.GeneratorEntry(entry.kind, entry.index, entry.power + 1, entry.flag, entry.normal)),
        (fc.TypeVector(4, (1, 2)), fc.TypeVector(4, (1, 2)), fc.TypeVector(4, (1, 3))),
        (fc.AbIndices(2, 2), fc.AbIndices(2, 2), fc.AbIndices(2, 3)),
        (fc.Classification(6, 8, 1), fc.Classification(6, 8, 1), fc.Classification(8, 8, 0)),
        (fc.GroupElementSeq(g, 3), fc.GroupElementSeq(g, 3), fc.GroupElementSeq(g, 6)),
        (fc.Poly(fc.field_make(3), [2, 1, 1]), fc.Poly(fc.field_make(3), (2, 1, 1, 0)),
         fc.Poly(fc.field_make(3), [1, 0, 1])),
    ]


RECORDS = _records()
RECORD_IDS = [type(r[0]).__name__ for r in RECORDS]


@pytest.mark.parametrize("rec,same,other", RECORDS, ids=RECORD_IDS)
def test_frozen_records_compare_and_hash_by_their_fields(rec, same, other):
    assert rec is not same
    assert rec == same and not rec != same
    assert hash(rec) == hash(same)
    assert rec != other and not rec == other
    assert len({rec, same, other}) == 2
    assert rec != object()
    assert rec != tuple(getattr(rec, name) for name in FIELDS[type(rec)])


@pytest.mark.parametrize("rec,same,other", RECORDS, ids=RECORD_IDS)
def test_frozen_records_refuse_assignment(rec, same, other):
    for name in FIELDS[type(rec)]:
        before = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) is before
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert rec == same


@pytest.mark.parametrize("rec,same,other", RECORDS, ids=RECORD_IDS)
def test_frozen_records_copy_and_pickle(rec, same, other):
    for clone in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(clone) is type(rec)
        assert clone == rec and hash(clone) == hash(rec)
        assert repr(clone) == repr(rec)


def test_reprs():
    entry = GEN220.entries[0]
    assert repr(P220) == "ConstructionParams(field=GF(2), k=2, h=0, s=2, poly_choice=0)"
    assert repr(entry) == (
        "GeneratorEntry(kind='A', index=1, power=1, "
        "flag=Flag(type (1, 2, 3) in GF(q)^4), normal=6)"
    )
    assert repr(fc.TypeVector(4, (1, 2))) == "TypeVector(n=4, dims=(1, 2))"
    assert repr(fc.AbIndices(None, 1)) == "AbIndices(a=None, b=1)"
    assert repr(fc.Classification(6, 8, 1)) == "Classification(min_distance=6, max_distance=8, deficit=1)"
    assert repr(fc.GroupElementSeq(GEN220.families[0][0], 3)) == (
        "GroupElementSeq(generator=MatrixGF(4x4 over GF(2)), order=3)"
    )
    assert repr(fc.Poly(fc.field_make(3), [2, 1, 1])) == "Poly(x^2+x+2 over GF(3))"
    assert repr(fc.Poly(fc.field_make(2), [])) == "Poly(0 over GF(2))"
    claim = fc.Claim("x.y", "a statement", 1, 2, False, 0.5)
    assert repr(claim) == (
        "Claim(claim_id='x.y', statement='a statement', expected=1, computed=2, "
        "passed=False, seconds=0.5)"
    )
    report = fc.VerificationReport({"q": 2}, (1, 2), [claim])
    assert repr(report) == f"VerificationReport(params={{'q': 2}}, type_dims=(1, 2), claims=[{claim!r}])"
    assert repr(fc.VerificationReport({})) == "VerificationReport(params={}, type_dims=None, claims=[])"


RECORD_CLASSES = [fc.ConstructionParams, fc.GeneratorEntry, fc.GeneratorSet, fc.Claim,
                  fc.VerificationReport, fc.TypeVector, fc.AbIndices, fc.Classification,
                  fc.GroupElementSeq, fc.Poly]
# TypeVector's comparison runs once per flag of every FlagCode, so it keeps
# its own; a polynomial prints as its terms
OWN_METHODS = {fc.TypeVector: {"__eq__", "__hash__"}, fc.Poly: {"__repr__"}}


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_records_take_their_value_methods_from_one_base(cls):
    own = {name for name in ("__eq__", "__hash__", "__repr__") if name in vars(cls)}
    assert own == OWN_METHODS.get(cls, set())


def test_generator_set_leaves_out_its_restrictions():
    gen = GEN220
    gen.flag_code(fc.TypeVector(4, (1, 3)))
    fresh = fc.GeneratorSet(gen.params, gen.entries, gen.full, gen.families)
    assert fresh._restrictions == {} and gen._restrictions
    assert fresh == gen and not fresh != gen
    assert repr(fresh) == repr(gen) == (
        f"GeneratorSet(params={gen.params!r}, entries={gen.entries!r}, "
        f"full={gen.full!r}, families={gen.families!r})"
    )
    assert "_restrictions" not in repr(gen)
    short = fc.GeneratorSet(gen.params, gen.entries[1:], gen.full, gen.families)
    assert short != gen
    # the full code is no hashable value, so neither is the set
    with pytest.raises(TypeError):
        hash(gen)
    with pytest.raises(AttributeError):
        gen.full = gen.full
    # each set gets its own cache
    other = fc.GeneratorSet(gen.params, gen.entries, gen.full, gen.families)
    assert other._restrictions is not fresh._restrictions
    for clone in (copy.copy(gen), copy.deepcopy(gen), pickle.loads(pickle.dumps(gen))):
        assert clone == gen and repr(clone) == repr(gen)


def test_claims_and_reports_are_mutable_and_unhashable():
    claim = fc.Claim("x.y", "a statement", 1, 1, True, 0.25)
    same = fc.Claim("x.y", "a statement", 1, 1, True, 0.25)
    assert claim == same and not claim != same
    assert claim != fc.Claim("x.y", "a statement", 1, 1, True, 0.5)
    assert claim != ("x.y", "a statement", 1, 1, True, 0.25)
    with pytest.raises(TypeError):
        hash(claim)
    claim.seconds = 0.5
    assert claim.seconds == 0.5 and claim != same

    report = fc.VerificationReport({"q": 2})
    assert report == fc.VerificationReport({"q": 2}, None, [])
    assert report != fc.VerificationReport({"q": 3})
    with pytest.raises(TypeError):
        hash(report)
    report.type_dims = (1, 2)
    assert report.type_dims == (1, 2)
    for rec in (claim, report):
        for clone in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(clone) is type(rec)
            assert clone == rec and repr(clone) == repr(rec)


def test_each_report_gets_its_own_claims_list():
    a, b = fc.VerificationReport({}), fc.VerificationReport({})
    assert a.claims == [] and a.claims is not b.claims
    a.check("x", "s", 1, lambda: 1)
    assert len(a.claims) == 1 and b.claims == []
    given = []
    assert fc.VerificationReport({}, None, given).claims is given


def test_keywords_and_defaults():
    assert fc.ConstructionParams(field=fc.field_make(2), k=2, h=0, s=2) == P220
    assert P220.poly_choice == 0
    assert fc.TypeVector(n=4, dims=(1, 2)) == fc.TypeVector(4, (1, 2))
    assert fc.Claim(claim_id="x", statement="s", expected=1, computed=1, passed=True,
                    seconds=0.0) == fc.Claim("x", "s", 1, 1, True, 0.0)
    assert fc.VerificationReport(params={}, type_dims=(1,)).type_dims == (1,)


def test_import_loads_no_code_generation_modules():
    # -S: no site module, so only the package's own imports are seen
    heavy = ["dataclasses", "inspect", "typing", "ast", "dis", "tokenize"]
    src = Path(__file__).resolve().parents[1] / "src"
    probe = f"import sys, json; import flagcodes; print(json.dumps([m for m in {heavy!r} if m in sys.modules]))"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
