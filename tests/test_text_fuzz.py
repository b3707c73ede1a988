"""Seeded mutations of small code files through the CLI.

Each mutation changes the text of a GF(2), GF(3) or GF(4) code file by one
line or one token; the file then goes through ``verify --code`` against the
instance it was written for and through ``spectrum --code``.  Every run must
exit 0, 1 (a failed claim) or 2 (bad input): no exception escapes main's
mapping, and no mutation is taken for a broken theorem (exit 3).
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import flagcodes as fc
from flagcodes.cli import main

# (q, k, h, s): 5, 10 and 5 flags in GF(2)^4, GF(3)^4 and GF(4)^2
INSTANCES = [(2, 2, 0, 2), (3, 2, 0, 2), (4, 1, 0, 2)]
MUTATIONS = 500
# tokens a mutation puts in: entries in and out of each field, dims, field
# names, header words, signs, and a size far past any flag count
TOKENS = [
    "0", "1", "2", "3", "4", "-1", "16", "", "x", "1,2", "2,1", "1,2,3", "3,2,1",
    "GF(2)", "GF(3)", "GF(4)", "GF(2^2)", "GF(9)", "flagcode", "type", "1.5", "#",
    "9999999999",
]


def _code_text(qkhs) -> str:
    params = fc.ConstructionParams.make(*qkhs)
    return fc.dump_flag_code(fc.build_full_flag_code(fc.build_generator_set(params)))


def _mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    op = rng.randrange(8)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[j])
    elif op == 2:
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 3:
        lines.insert(i, rng.choice(TOKENS))
    elif op == 4:
        del lines[i:]
    else:
        # one token of line i replaced, deleted or doubled
        tokens = lines[i].split(" ")
        t = rng.randrange(len(tokens))
        if op == 5:
            tokens[t] = rng.choice(TOKENS)
        elif op == 6:
            del tokens[t]
        else:
            tokens.insert(t, tokens[t])
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_mutated_code_files_exit_0_1_or_2(tmp_path, capsys):
    rng = random.Random(20260421)
    texts = [(qkhs, _code_text(qkhs)) for qkhs in INSTANCES]
    path = tmp_path / "mutated.code"
    exits = Counter()
    for n in range(MUTATIONS):
        qkhs, text = texts[n % len(texts)]
        mutated = _mutate(text, rng)
        path.write_text(mutated)
        q, k, h, s = map(str, qkhs)
        for argv in (
            ["verify", "--q", q, "--k", k, "--h", h, "--s", s, "--code", str(path)],
            ["spectrum", "--code", str(path)],
        ):
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"{argv[0]} raised {exc!r} on:\n{mutated}")
            assert code in (0, 1, 2), f"{argv[0]} exited {code} on:\n{mutated}"
            exits[code] += 1
        capsys.readouterr()
    # the mutations reach every outcome: a code that still verifies, one
    # that loads but fails a claim, and refused input
    assert set(exits) == {0, 1, 2}, exits
