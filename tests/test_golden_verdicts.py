"""Every claim-suite verdict of the standard sweep, pinned.

``data/golden_verdicts.json`` holds ``run_claim_suite(...).to_json_obj()``
with every ``seconds`` key removed, for each sweep instance at poly_choice 0
and, where the field has a second primitive polynomial of every degree the
construction needs, poly_choice 1, and likewise for the non-binary
``--big`` instances.  The GF(2) instances past the sweep, n = 11 at both
poly choices and n = 13 at poly_choice 0, are pinned too.  The suites past
the sweep run under the ``slow`` marker.  A change
that only restructures code must leave every report identical.  When a
verdict changes on purpose, re-record with

    PYTHONPATH=src python tests/test_golden_verdicts.py

and say in the change log which claims changed and why.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import flagcodes as fc

from _checks import SWEEP, poly_choices, strip_seconds

GOLDEN = Path(__file__).parent / "data" / "golden_verdicts.json"
ROOT = Path(__file__).resolve().parent.parent

# the non-binary scripts/run_verification_sweep.py BIG_INSTANCES: the
# n = 7 ones, first recorded with the per-pair scan that the bit-sliced
# GF(3) and GF(4) scans replaced, and (3,2,0,4) (n = 8, 820 flags), first
# recorded with the one-elimination-per-chain GF(3) scan, and (5,2,1,2)
# (n = 5, 126 flags), kept out of SWEEP because the per-pair oracle of the
# SWEEP-parametrized scan tests takes seconds on it
BIG = [(3, 2, 1, 3), (4, 2, 1, 3), (3, 2, 0, 4), (5, 2, 1, 2)]
BIG_SECONDS = 10
# GF(2) past the sweep: (2,2,1,5) is n = 11, (2,2,1,6) is n = 13
BIG_GF2 = ["2,2,1,5,0", "2,2,1,5,1", "2,2,1,6,0"]


def _verdicts(q: int, k: int, h: int, s: int, choice: int) -> dict:
    params = fc.ConstructionParams.make(q, k, h, s, poly_choice=choice)
    return strip_seconds(fc.run_claim_suite(params).to_json_obj())


def _keys(instances) -> list[str]:
    return [f"{q},{k},{h},{s},{c}" for q, k, h, s in instances for c in poly_choices(q, k, h, s)]


def _record() -> dict:
    return {key: _verdicts(*(int(t) for t in key.split(","))) for key in _keys(SWEEP + BIG) + BIG_GF2}


# a missing file fails test_every_instance_pinned rather than collection
_golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("key", _keys(SWEEP))
def test_verdicts_unchanged(key):
    q, k, h, s, choice = (int(t) for t in key.split(","))
    assert _verdicts(q, k, h, s, choice) == _golden[key]


@pytest.mark.slow
@pytest.mark.parametrize("key", _keys(BIG) + BIG_GF2)
def test_big_verdicts_unchanged(key):
    q, k, h, s, choice = (int(t) for t in key.split(","))
    start = perf_counter()
    verdicts = _verdicts(q, k, h, s, choice)
    elapsed = perf_counter() - start
    assert verdicts == _golden[key]
    assert elapsed < BIG_SECONDS, f"suite took {elapsed:.1f}s"


def test_every_instance_pinned():
    assert sorted(_golden) == sorted(_keys(SWEEP + BIG) + BIG_GF2)


def _run_sweep(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verification_sweep.py"), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_sweep_script_skips_instances_without_a_second_polynomial(tmp_path):
    out = tmp_path / "claims.json"
    proc = _run_sweep("--poly-choice", "1", "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    runnable = [qkhs for qkhs in SWEEP if 1 in poly_choices(*qkhs)]
    assert proc.stdout.count("skipped: ") == len(SWEEP) - len(runnable)
    reports = [strip_seconds(r) for r in json.loads(out.read_text())["reports"]]
    assert reports == [_golden["{},{},{},{},1".format(*qkhs)] for qkhs in runnable]


def test_sweep_script_rejects_negative_poly_choice():
    proc = _run_sweep("--poly-choice", "-1")
    assert proc.returncode == 2
    assert "poly_choice must be nonnegative" in proc.stderr


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
