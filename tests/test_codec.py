"""The text codec renders and parses each distinct line once per call.

The rows of a flag code's generator matrices repeat, so ``dump_flag_code``
and ``SubspaceCode.dump`` render each distinct row and header once per call,
and ``load_flag_code`` and ``SubspaceCode.load`` parse each distinct line
once per call (``matgf._matrix_lines`` and ``matgf._read_matrix``).  Here
codes whose matrices draw their rows from a small pool are written and read
back over GF(2), GF(3), GF(4) and GF(9), against a writer that formats every
row of ``int_rows()`` afresh.  A bad line must raise the same error on every
load, a line is checked against the width and field of the header it sits
under, and two loads share nothing.
"""

from __future__ import annotations

import random
import re

import pytest

import flagcodes as fc
from flagcodes import cli
from flagcodes import matgf
from flagcodes.errors import AmbientMismatch, NotPrime
from flagcodes.field import field_name

from _checks import rref_oracle

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]
FIELD_IDS = ["GF2", "GF3", "GF4", "GF9"]
N = 5


def _pool_matrix(field, rng, pool, nrows):
    """A matrix of ``nrows`` rows drawn from ``pool`` whose every row prefix
    has full rank."""
    while True:
        w = fc.MatrixGF(field, [rng.choice(pool) for _ in range(nrows)], ncols=N)
        if all(rref_oracle(w.first_rows(t))[1] == t for t in range(1, nrows + 1)):
            return w


def _random_code(p, e, seed):
    """A full-type flag code over GF(p^e) whose flags come from matrices
    with rows drawn from a pool of 7, about a third of them given by their
    parts instead (so they have no source matrix)."""
    field = fc.field_make(p, e)
    rng = random.Random(seed)
    pool = [[rng.randrange(field.q) for _ in range(N)] for _ in range(7)]
    tv = fc.TypeVector.full(N)
    flags = []
    for i in range(24):
        w = _pool_matrix(field, rng, pool, N - 1)
        if i % 3:
            flags.append(fc.flag_from_matrix(w, tv))
        else:
            flags.append(fc.Flag(tv, [fc.subspace_of(w.first_rows(t)) for t in tv.dims]))
    return fc.FlagCode(tv, flags)


def _matrix_text(m: fc.MatrixGF) -> list[str]:
    return [f"{m.nrows} {m.ncols} {field_name(m.field)}"] + [
        " ".join(map(str, row)) for row in m.int_rows()
    ]


def _oracle_dump(code: fc.FlagCode) -> str:
    """dump_flag_code written out row by row from each matrix's code grid."""
    q = code.flags[0].field.q
    lines = [f"flagcode {code.type.n} {q} {len(code)}", "type " + ",".join(map(str, code.type.dims))]
    for f in code:
        if f.source is not None:
            lines += _matrix_text(f.source.first_rows(code.type.dims[-1]))
        else:
            for part in f.parts:
                lines += _matrix_text(part.canon)
    return "\n".join(lines) + "\n"


def _row_lines(text: str) -> list[str]:
    """The row lines of a dumped flag code: every line after the two file
    header lines that is not a matrix header."""
    return [ln for ln in text.splitlines()[2:] if "GF(" not in ln]


@pytest.mark.parametrize("p,e", FIELDS, ids=FIELD_IDS)
def test_flag_code_round_trip_with_repeated_rows(p, e):
    code = _random_code(p, e, seed=17 * p + e)
    text = fc.dump_flag_code(code)
    rows = _row_lines(text)
    assert len(set(rows)) < len(rows) // 2  # the rows repeat
    assert text == _oracle_dump(code)
    loaded = fc.load_flag_code(text)
    assert loaded == code
    assert [f.source is None for f in loaded] == [f.source is None for f in code]
    assert fc.dump_flag_code(loaded) == text


@pytest.mark.parametrize("p,e", FIELDS, ids=FIELD_IDS)
def test_subspace_code_round_trip_with_repeated_rows(p, e):
    code = _random_code(p, e, seed=5 * p + e)
    words = fc.projected_code_at_dim(code, 2)
    text = words.dump()
    lines = [f"{N} 2 {words.words[0].field.q} {len(words)}"]
    for w in words:
        lines += _matrix_text(w.canon)
    assert text == "\n".join(lines) + "\n"
    assert fc.SubspaceCode.load(text) == words
    assert fc.SubspaceCode.load(text).dump() == text


@pytest.mark.parametrize("p,e", FIELDS, ids=FIELD_IDS)
def test_each_distinct_line_is_handled_once_per_call(p, e, monkeypatch):
    code = _random_code(p, e, seed=3 * p + e)
    text = fc.dump_flag_code(code)
    distinct = set(_row_lines(text))
    # rendering: over GF(2) each distinct row is turned into digits once
    if p == 2 and e == 1:
        calls = []
        digits = matgf._digits

        def counting_digits(bits, ncols):
            calls.append(bits)
            return digits(bits, ncols)

        monkeypatch.setattr(matgf, "_digits", counting_digits)
        assert fc.dump_flag_code(code) == text
        assert len(calls) == len(distinct)
        assert fc.dump_flag_code(code) == text
        assert len(calls) == 2 * len(distinct)  # the memo is the call's own
        monkeypatch.undo()
    # parsing: each distinct row line is validated once, over every field
    checked = []
    codes_of = fc.FieldSpec.codes_of

    def counting_codes_of(self, values):
        checked.append(values)
        return codes_of(self, values)

    monkeypatch.setattr(fc.FieldSpec, "codes_of", counting_codes_of)
    parsed = []
    gf2_row = matgf._gf2_row

    def counting_gf2_row(tokens):
        parsed.append(tokens)
        return gf2_row(tokens)

    monkeypatch.setattr(matgf, "_gf2_row", counting_gf2_row)
    assert fc.load_flag_code(text) == code
    assert len(parsed) + len(checked) == len(distinct)
    assert fc.load_flag_code(text) == code
    assert len(parsed) + len(checked) == 2 * len(distinct)


def _replace_row(text: str, index: int, new: str) -> str:
    """``text`` with its ``index``-th row line (counted as _row_lines does)
    replaced by ``new``."""
    lines = text.splitlines()
    positions = [i for i, ln in enumerate(lines) if i >= 2 and "GF(" not in ln]
    lines[positions[index]] = new
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "p,e,bad,error,message",
    [
        (2, 1, "1 0 x 1 0", ValueError, "invalid literal"),
        (3, 1, "1 0 1 2", ValueError, "row has 4 entries, expected 5"),
        (2, 2, "1 0 7 1 0", ValueError, "element code 7 out of range for GF(2^2)"),
        (3, 2, "1 0 1 1 0 1", ValueError, "row has 6 entries, expected 5"),
    ],
)
def test_a_repeated_bad_line_raises_the_same_error_every_time(p, e, bad, error, message, tmp_path):
    text = fc.dump_flag_code(_random_code(p, e, seed=11 * p + e))
    count = len(_row_lines(text))
    # the bad line late in the file and again, after many good repeats
    broken = _replace_row(_replace_row(text, count - 1, bad), count - 5, bad)
    seen = set()
    for _ in range(3):
        with pytest.raises(error, match=re.escape(message)) as exc:
            fc.load_flag_code(broken)
        seen.add((type(exc.value), str(exc.value)))
    assert len(seen) == 1
    path = tmp_path / "bad.code"
    path.write_text(broken)
    assert cli.main(["spectrum", "--code", str(path)]) == 2
    # nothing is left behind: the good file still loads
    assert fc.dump_flag_code(fc.load_flag_code(text)) == text


def test_a_line_is_checked_under_each_header_it_sits_under():
    code = _random_code(2, 1, seed=2)
    text = fc.dump_flag_code(code)
    lines = text.splitlines()
    headers = [i for i, ln in enumerate(lines) if "GF(" in ln]
    # the last matrix claims one column more: its rows, parsed under the
    # earlier headers, must fail the width check there
    wider = list(lines)
    wider[headers[-1]] = wider[headers[-1]].replace(f" {N} GF", f" {N + 1} GF")
    with pytest.raises(ValueError, match=f"row has {N} entries, expected {N + 1}"):
        fc.load_flag_code("\n".join(wider) + "\n")
    # the last matrix names GF(3), of another order than the header's q:
    # refused at its header, before GF(3) is built
    other = list(lines)
    other[headers[-1]] = other[headers[-1]].replace("GF(2)", "GF(3)")
    with pytest.raises(ValueError, match=r"header says q = 2, but the flags are over GF\(3\)"):
        fc.load_flag_code("\n".join(other) + "\n")
    # the last matrix names GF(8) by another modulus, of the header's order:
    # its rows are read over that field, and the code refuses a flag over
    # another field
    lines = fc.dump_flag_code(_random_code(2, 3, seed=2)).splitlines()
    headers = [i for i, ln in enumerate(lines) if "GF(" in ln]
    other = list(lines)
    other[headers[-1]] = other[headers[-1]].replace("GF(2^3)", "GF(2^3,x^3+x^2+1)")
    with pytest.raises(AmbientMismatch, match=r"flag over GF\(2\^3\) \(modulus Poly\(x\^3\+x\^2\+1"):
        fc.load_flag_code("\n".join(other) + "\n")


def test_lines_differing_only_in_whitespace_parse_to_the_same_row():
    code = _random_code(3, 1, seed=4)
    text = fc.dump_flag_code(code)
    rows = _row_lines(text)
    respaced = text
    for i, row in enumerate(rows):
        if i % 2:
            respaced = _replace_row(respaced, i, "  " + row.replace(" ", " \t ") + " ")
    assert respaced != text
    loaded = fc.load_flag_code(respaced)
    assert loaded == code
    assert fc.dump_flag_code(loaded) == text
    plain = fc.load_flag_code(text)
    assert [f.source for f in loaded] == [f.source for f in plain]


def test_loads_over_different_fields_share_nothing():
    texts = {pe: fc.dump_flag_code(_random_code(*pe, seed=8)) for pe in FIELDS}
    # the GF(2) rows are also valid lines over every other field
    gf2_rows = set(_row_lines(texts[2, 1]))
    assert any(gf2_rows & set(_row_lines(t)) for pe, t in texts.items() if pe != (2, 1))
    for order in (FIELDS, FIELDS[::-1], FIELDS[1:] + FIELDS[:1]):
        for p, e in order:
            loaded = fc.load_flag_code(texts[p, e])
            field = fc.field_make(p, e)
            assert loaded.flags[0].field == field
            stored = int if field.q == 2 else tuple
            for f in loaded:
                rows = f.source._rows if f.source is not None else f._key_rows(0)
                assert all(type(r) is stored for r in rows + f.key)
            assert fc.dump_flag_code(loaded) == texts[p, e]


def test_read_matrix_alone_reduces_codes_and_checks_the_callers_field():
    field = fc.field_make(3)
    m = fc.MatrixGF(field, [[1, 2, 0], [1, 2, 0], [0, 1, 1]])
    text = fc.matrix_to_text(m)
    assert text == "3 3 GF(3)\n1 2 0\n1 2 0\n0 1 1"
    assert fc.matrix_from_text(text) == m
    assert fc.matrix_from_text(text.replace("1 2 0", "4 5 3")) == m


class TestCodeHeaders:
    """A code header that claims what no field or code has is refused; an
    empty code has no field and no dimension to check it against."""

    @pytest.mark.parametrize("q", [1, 6, 12, -4])
    def test_flag_code_header_q_must_be_a_field_order(self, q, tmp_path):
        text = f"flagcode 3 {q} 0\ntype 1,2\n"
        with pytest.raises(ValueError, match=f"header says q = {q}, which is no field order"):
            fc.load_flag_code(text)
        path = tmp_path / "q.code"
        path.write_text(text)
        assert cli.main(["spectrum", "--code", str(path)]) == 2

    def test_an_empty_flag_code_header_q_must_be_0(self, tmp_path):
        # an empty code is dumped with q = 0, so a prime power would not
        # round-trip
        text = "flagcode 3 4 0\ntype 1,2\n"
        with pytest.raises(ValueError, match="header says q = 4, which is not 0"):
            fc.load_flag_code(text)
        path = tmp_path / "q.code"
        path.write_text(text)
        assert cli.main(["spectrum", "--code", str(path)]) == 2

    def test_an_empty_flag_code_round_trips(self):
        text = "flagcode 3 0 0\ntype 1,2\n"
        code = fc.load_flag_code(text)
        assert len(code) == 0
        assert fc.dump_flag_code(code) == text

    # a matrix naming a field of another order than the header's q is
    # refused before that field's tables are built: with _build_tables
    # failing, the refusal must still come
    @pytest.mark.parametrize(
        "text, load, message",
        [
            ("flagcode 2 4 1\ntype 1\n1 2 GF(3^6)\n1 0\n", fc.load_flag_code,
             "header says q = 4, but the flags are over GF(3^6)"),
            ("flagcode 2 4 1\ntype 1\n1 2 GF(5^4,x^4+x^2+x+2)\n1 0\n", fc.load_flag_code,
             "header says q = 4, but the flags are over GF(5^4)"),
            ("2 1 4 1\n1 2 GF(7^3)\n1 0\n", fc.SubspaceCode.load,
             "header says q = 4, but a word is over GF(7^3)"),
        ],
        ids=["flag-code", "flag-code-modulus", "subspace-code"],
    )
    def test_header_q_is_checked_before_the_named_field_is_built(
        self, text, load, message, tmp_path, monkeypatch
    ):
        def refuse(field):
            raise AssertionError(f"tables of {field} built")

        monkeypatch.setattr(fc.FieldSpec, "_build_tables", refuse)
        with pytest.raises(ValueError, match=re.escape(message)):
            load(text)
        path = tmp_path / "q.code"
        path.write_text(text)
        assert cli.main(["spectrum", "--code", str(path)]) == 2

    def test_a_name_of_the_header_order_goes_on_to_the_field(self):
        # GF(2^2) has order 4 and loads; GF(4) declares order 4 too, and the
        # field refuses it, as before the order check
        code = fc.load_flag_code("flagcode 2 4 1\ntype 1\n1 2 GF(2^2)\n1 0\n")
        assert code.flags[0].field == fc.field_make(2, 2)
        with pytest.raises(NotPrime):
            fc.load_flag_code("flagcode 2 4 1\ntype 1\n1 2 GF(4)\n1 0\n")

    @pytest.mark.parametrize("token", ["GF(2^1)", "GF(1^4)", "GF(2^0)", "GF(0)", "GF(4^1000000)"])
    def test_a_name_of_another_order_is_refused(self, token):
        with pytest.raises(ValueError, match=r"header says q = 4, but the flags are over GF\("):
            fc.load_flag_code(f"flagcode 2 4 1\ntype 1\n1 2 {token}\n1 0\n")

    def test_subspace_code_count_must_be_positive(self, tmp_path):
        text = "3 1 4 0\n"
        with pytest.raises(ValueError, match="declares 0 words, but a code file needs one or more"):
            fc.SubspaceCode.load(text)
        path = tmp_path / "empty.code"
        path.write_text(text)
        assert cli.main(["spectrum", "--code", str(path)]) == 2


    def test_flag_code_header_q_other_than_a_field_order_with_flags(self):
        text = fc.dump_flag_code(_random_code(2, 1, seed=6))
        assert text.startswith(f"flagcode {N} 2 ")
        with pytest.raises(ValueError, match="header says q = 6, but the flags are over GF"):
            fc.load_flag_code(text.replace(f"flagcode {N} 2 ", f"flagcode {N} 6 ", 1))
