"""The full-type distance profile of every standard instance, pinned.

``data/full_profiles.json`` holds, for every standard sweep instance and
for (2,2,1,5), (3,2,1,3), (3,2,0,4) and (5,2,0,3), at each poly choice the
field allows, the distance profile of the full-type code: its
``[vector, count]`` entries sorted by vector.  The profile depends on the
polynomial assignment, so each choice is pinned on its own.  The four
larger instances have 271 to 820 flags: the pair scan runs (2,2,1,5),
(3,2,0,4) and (5,2,0,3) in several batches and then one cyclic batch of
the chains left, and (3,2,1,3) in one cyclic batch
(``subspace._BATCH_BITS``).  A change to the scan that only restructures
it must leave every profile identical.  When a profile changes on purpose, re-record with

    PYTHONPATH=src python tests/test_profile_pins.py

and say in the change log which profiles changed and why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import flagcodes as fc

from _checks import SWEEP, poly_choices

PINS = Path(__file__).parent / "data" / "full_profiles.json"

INSTANCES = SWEEP + [(2, 2, 1, 5), (3, 2, 1, 3), (3, 2, 0, 4), (5, 2, 0, 3)]


def _keys() -> list[str]:
    return [f"{q},{k},{h},{s},{c}" for q, k, h, s in INSTANCES for c in poly_choices(q, k, h, s)]


def _profile(key: str) -> list:
    """The full-type profile of the instance and poly choice ``key`` names,
    as sorted [vector, count] lists."""
    q, k, h, s, c = (int(t) for t in key.split(","))
    code = fc.build_generator_set(fc.ConstructionParams.make(q, k, h, s, poly_choice=c)).full
    profile = code.distance_profile()
    assert sum(profile.values()) == len(code) * (len(code) - 1) // 2
    return [[list(vec), count] for vec, count in sorted(profile.items())]


# a missing file fails test_every_profile_pinned rather than collection
_pins = json.loads(PINS.read_text()) if PINS.exists() else {}


@pytest.mark.parametrize("key", _keys())
def test_full_profile_unchanged(key):
    assert _profile(key) == _pins[key]


def test_every_profile_pinned():
    assert sorted(_pins) == sorted(_keys())


if __name__ == "__main__":
    # one instance a line
    lines = [f"{json.dumps(key)}: {json.dumps(_profile(key))}" for key in sorted(_keys())]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
