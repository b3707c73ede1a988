"""The dumped bytes of every construction family, pinned.

``data/dump_sha256.json`` holds the SHA-256 of ``dump_flag_code`` for the
full, optimum and longer families of a few instances over GF(2), GF(3),
GF(4) and GF(9), at each poly choice the field allows.  The dump lists the
flags in code order, so these pins guard that order (the sort by normal
form, here the order of the first parts) as well as the text format.  The
n = 13 full-type code of (2,3,1,4), the file the construct benchmark
writes, is pinned at poly choices 0 and 1 (full family only): its rows are
13 digits wide, so the writer's GF(2) render is pinned at a width that is
not a multiple of 8.  A change that only restructures code must leave every
file byte-identical.  When the order or format changes on
purpose, re-record with

    PYTHONPATH=src python tests/test_dump_pins.py

and say in the change log which files changed and why.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from pathlib import Path

import pytest

import flagcodes as fc

from _checks import poly_choices

PINS = Path(__file__).parent / "data" / "dump_sha256.json"

INSTANCES = [(2, 2, 1, 4), (3, 2, 0, 3), (4, 2, 1, 2), (9, 2, 0, 2)]
# pinned beyond the grid above: the n = 13 full-type file at both choices
EXTRA_KEYS = ["2,3,1,4,0,full", "2,3,1,4,1,full"]
BUILDERS = {
    "full": fc.build_full_flag_code,
    "optimum": fc.build_optimum_code,
    "longer": fc.build_longer_type_code,
}


@cache
def _generator_set(q: int, k: int, h: int, s: int, choice: int):
    return fc.build_generator_set(fc.ConstructionParams.make(q, k, h, s, poly_choice=choice))


def _dump(key: str) -> str:
    qkhsc, family = key.rsplit(",", 1)
    gen = _generator_set(*(int(t) for t in qkhsc.split(",")))
    return fc.dump_flag_code(BUILDERS[family](gen))


def _keys() -> list[str]:
    return [
        f"{q},{k},{h},{s},{c},{family}"
        for q, k, h, s in INSTANCES
        for c in poly_choices(q, k, h, s)
        for family in BUILDERS
    ] + EXTRA_KEYS


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# a missing file fails test_every_dump_pinned rather than collection
_pins = json.loads(PINS.read_text()) if PINS.exists() else {}


@pytest.mark.parametrize("key", _keys())
def test_dump_unchanged(key):
    text = _dump(key)
    assert _sha256(text) == _pins[key]
    assert fc.dump_flag_code(fc.load_flag_code(text)) == text


def test_every_dump_pinned():
    assert sorted(_pins) == sorted(_keys())


if __name__ == "__main__":
    PINS.write_text(json.dumps({key: _sha256(_dump(key)) for key in _keys()}, indent=1, sort_keys=True) + "\n")
