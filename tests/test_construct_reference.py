"""The benchmark's construct workload, byte for byte.

``flagcodes construct --q 2 --k 3 --h 1 --s 4 --family full --out F`` must
write the file whose SHA-256, byte count and flag count
``benchmark/references.json`` records (read here, never written), and
loading F and dumping it again must give F back.  A byte change in the
writer or the reader fails here, not only in a benchmark run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import flagcodes as fc
from flagcodes.cli import main

REFERENCES = Path(__file__).resolve().parents[1] / "benchmark" / "references.json"


@pytest.mark.parametrize("poly_choice", [0, 1])
def test_construct_file_matches_reference(tmp_path, capsys, poly_choice):
    reference = json.loads(REFERENCES.read_text())["construct-gf2-n13"][str(poly_choice)]
    out = tmp_path / "F"
    rc = main([
        "construct", "--q", "2", "--k", "3", "--h", "1", "--s", "4", "--family", "full",
        "--poly-choice", str(poly_choice), "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == reference["sha256"]
    assert len(data) == reference["bytes"]
    text = data.decode()
    code = fc.load_flag_code(text)
    assert len(code) == reference["flags"]
    assert fc.dump_flag_code(code) == text
