"""The text codec renders and parses each distinct line once per call.

The rows of a flag code's generator matrices repeat, so ``dump_flag_code``
and ``SubspaceCode.dump`` render each distinct row and header once per call,
and ``load_flag_code`` and ``SubspaceCode.load`` parse each distinct line
once per call (the ``__missing__`` of ``matgf._RowTexts`` and
``matgf._RowParses``).  Here
codes whose matrices draw their rows from a small pool are written and read
back over GF(2), GF(3), GF(4) and GF(9), against a writer that formats every
row of ``int_rows()`` afresh.  A bad line must raise the same error on every
load, a line is checked against the width and field of the header it sits
under, and two loads share nothing.  Rows are rendered and parsed as the
line-at-a-time oracles of ``_checks`` do it, at every GF(2) width up to
17 and for every spelling of a row line the reader accepts or refuses, and
a code file that ends before the count its header declares says so.
"""

from __future__ import annotations

import random
import re

import pytest

import flagcodes as fc
from flagcodes import cli
from flagcodes import matgf
from flagcodes.errors import AmbientMismatch, NotPrime, RankDeficientPrefix
from flagcodes.field import field_name

from _checks import matrix_rows_oracle, row_line_oracle, rref_oracle

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
    # rendering: each distinct row is turned into its line once
    calls = []
    render = matgf._RowTexts.__missing__

    def counting_render(self, row):
        calls.append(row)
        return render(self, row)

    monkeypatch.setattr(matgf._RowTexts, "__missing__", counting_render)
    assert fc.dump_flag_code(code) == text
    assert len(calls) == len(distinct)
    assert fc.dump_flag_code(code) == text
    assert len(calls) == 2 * len(distinct)  # the memo is the call's own
    # parsing: each distinct row line is parsed and validated once
    parsed = []
    parse = matgf._RowParses.__missing__

    def counting_parse(self, raw):
        parsed.append(raw)
        return parse(self, raw)

    monkeypatch.setattr(matgf._RowParses, "__missing__", counting_parse)
    assert fc.load_flag_code(text) == code
    assert len(parsed) == len(distinct)
    assert fc.load_flag_code(text) == code
    assert len(parsed) == 2 * len(distinct)


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


# -- the block codec against the line-at-a-time oracles ----------------------


@pytest.mark.parametrize("ncols", range(1, 18))
def test_gf2_rows_render_and_round_trip_as_the_oracle_at_every_width(ncols):
    field = fc.field_make(2)
    rng = random.Random(ncols)
    bits = [0, (1 << ncols) - 1, 1, 1 << ncols - 1] + [rng.getrandbits(ncols) for _ in range(40)]
    bits += bits[:10]  # repeated rows take the memo's stored line
    m = fc.MatrixGF(field, [[b >> (ncols - 1 - j) & 1 for j in range(ncols)] for b in bits])
    text = fc.matrix_to_text(m)
    assert text.splitlines() == [f"{len(bits)} {ncols} GF(2)"] + [
        row_line_oracle(b, ncols, field) for b in bits
    ]
    assert fc.matrix_from_text(text) == m
    assert fc.matrix_from_text(text)._rows == tuple(bits)
    # a leading blank on every row line sends each through the int tokens
    respaced = text.replace("\n", "\n ")
    assert fc.matrix_from_text(respaced)._rows == tuple(bits)


# spellings of the GF(2) row 1 0 1 1 0 and of its near misses; "at width"
# marks a line of the writer's length, 2 * 5 - 1 characters, that is not in
# its spelling
ROW_SPELLINGS = {
    "canonical": "1 0 1 1 0",
    "double-space": "1  0 1 1 0",
    "tab": "1\t0 1 1 0",
    "leading-blank": " 1 0 1 1 0",
    "trailing-blank": "1 0 1 1 0 ",
    "plus": "+1 0 1 1 0",
    "minus-zero": "1 -0 1 1 0",
    "three": "3 0 1 1 0",
    "underscore": "1_0 0 1 1 0",
    "leading-zero": "01 0 1 1 0",
    "arabic-indic-one": "\u0661 0 1 1 0",
    "run-of-spaces-at-width": "1 0   1 0",
    "trailing-double-space-at-width": "1 0 1 1  ",
    "leading-double-space-at-width": "  1 0 1 1",
    "digits-for-gaps-at-width": "101010101",
    "sign-at-width": "+ 0 1 1 0",
    "underscore-at-width": "1_0 1 1 0",
    "short": "1 0 1 1",
    "long": "1 0 1 1 0 1",
    "bad-token": "1 0 x 1 0",
    "blank": "   ",
}


def _outcome(read):
    """What ``read()`` returns, or the type and message of what it raises."""
    try:
        return read()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("line", ROW_SPELLINGS.values(), ids=ROW_SPELLINGS.keys())
def test_every_spelling_reads_as_the_token_oracle(line, q):
    field = fc.field_make(q)
    text = f"1 5 GF({q})\n{line}"
    got = _outcome(lambda: fc.matrix_from_text(text)._rows)
    want = _outcome(lambda: matrix_rows_oracle([line], 1, 5, field))
    assert got == want


@pytest.mark.parametrize(
    "block",
    [
        "1 0 1 1 0\n\n0 1 0 0 1\n \t\n1 1 0 0 0",  # blank lines inside the block
        "1 0 1 1 0\n0 1 0 0 1",  # the file ends a row short
        "1 0 1 1 0\n\n\n",  # blank lines, then the end
        "1 0 1 1 0\n3 5 GF(2)\n0 1 0 0 1",  # a short block runs into a header
        "1 0 1 1 0\n0 1 0 0 1\n1 1 0 0 0\n1 1 1 1 1",  # one row past the block
    ],
    ids=["blank-inside", "short-last-block", "blank-then-end", "short-then-header", "long"],
)
def test_a_block_reads_as_the_line_at_a_time_oracle(block):
    field = fc.field_make(2)
    lines = iter(f"3 5 GF(2)\n{block}".splitlines())
    oracle_lines = iter(block.splitlines())
    got = _outcome(lambda: matgf.read_matrix(lines)._rows)
    want = _outcome(lambda: matrix_rows_oracle(oracle_lines, 3, 5, field))
    assert got == want
    # both stop at the same line, leaving the rest for the next reader
    assert list(lines) == list(oracle_lines)


def test_blank_lines_inside_blocks_of_a_code_file_are_skipped():
    code = _random_code(2, 1, seed=9)
    lines = fc.dump_flag_code(code).splitlines()
    # a blank or whitespace-only line after the first row of every third block
    headers = [i for i, ln in enumerate(lines) if "GF(" in ln]
    for k, i in enumerate(reversed(headers)):
        if k % 3 == 0:
            lines.insert(i + 2, " \t" if k % 2 else "")
    loaded = fc.load_flag_code("\n".join(lines) + "\n")
    assert loaded == code
    assert fc.dump_flag_code(loaded) == fc.dump_flag_code(code)


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


class TestEarlyEnd:
    """A code file that ends before the count of flags or words its header
    declares names that count and where the file ended (exit 2 from the
    CLI), as one flag or word too many names the count it passes."""

    @staticmethod
    def _spectrum(tmp_path, capsys, text):
        path = tmp_path / "short.code"
        path.write_text(text)
        rc = cli.main(["spectrum", "--code", str(path)])
        return rc, capsys.readouterr().err

    def test_a_flag_code_one_flag_short(self, tmp_path, capsys):
        gen = fc.build_generator_set(fc.ConstructionParams.make(2, 2, 0, 2))
        text = fc.dump_flag_code(fc.build_full_flag_code(gen))
        assert text.startswith("flagcode 4 2 5\n")
        short = text.replace("flagcode 4 2 5", "flagcode 4 2 6", 1)
        message = "the header declares 6 flags, but the file ends after 5"
        with pytest.raises(ValueError, match=message):
            fc.load_flag_code(short)
        assert self._spectrum(tmp_path, capsys, short) == (2, f"error: {message}\n")

    def test_a_flag_code_that_ends_between_the_parts_of_a_flag(self):
        # the file of the flags up to the first one given by its parts, cut
        # after that flag's first part, under the whole code's header
        code = _random_code(2, 1, seed=6)
        i = next(i for i, f in enumerate(code) if f.source is None)
        lines = fc.dump_flag_code(fc.FlagCode(code.type, code.flags[: i + 1])).splitlines()
        lines[0] = f"flagcode {N} 2 {len(code)}"
        # that flag's r matrices take r header lines and sum(dims) rows; keep
        # the first, a header and one row
        first = len(lines) - code.type.r - sum(code.type.dims)
        assert lines[first] == f"1 {N} GF(2)"
        cut = "\n".join(lines[: first + 2]) + "\n"
        with pytest.raises(
            ValueError, match=f"the header declares {len(code)} flags, but the file ends after {i}"
        ):
            fc.load_flag_code(cut)

    def test_a_subspace_code_one_word_short(self, tmp_path, capsys):
        words = fc.projected_code_at_dim(_random_code(3, 1, seed=7), 2)
        text = words.dump()
        count = len(words)
        head, _, body = text.partition("\n")
        short = head.rsplit(" ", 1)[0] + f" {count + 1}\n" + body
        message = f"the header declares {count + 1} words, but the file ends after {count}"
        with pytest.raises(ValueError, match=message):
            fc.SubspaceCode.load(short)
        assert self._spectrum(tmp_path, capsys, short) == (2, f"error: {message}\n")


class TestLoadErrorOrder:
    """The flags of a code file are checked in file order: a rank-deficient
    flag 2 is what load_flag_code reports, whatever fails after it in flag
    5 or past the last flag, and each later failure is reported when flag 2
    is sound."""

    LATER = {
        "a short row": (ValueError, "row has 4 entries, expected 5"),
        "a bad header": (ValueError, "bad matrix header"),
        "another width": (AmbientMismatch, "4-column matrix for ambient 5"),
        "parts that do not nest": (RankDeficientPrefix, "component of dim 1 not inside"),
        "an early end": (ValueError, "the header declares 6 flags, but the file ends after 4"),
        "text after the flags": (ValueError, "text after the 4 flags"),
        "a repeated flag": (ValueError, "the header declares 5 flags, but 4 are distinct"),
    }

    @staticmethod
    def _matrices(field, rng, count):
        """``count`` random N - 1 by N matrices whose every row prefix has
        full rank."""
        out = []
        while len(out) < count:
            w = fc.MatrixGF(field, [[rng.randrange(field.q) for _ in range(N)] for _ in range(N - 1)])
            if all(rref_oracle(w.first_rows(t))[1] == t for t in range(1, N)):
                out.append(w)
        return out

    def _text(self, p, later, deficient):
        field = fc.field_make(p, 1)
        ws = self._matrices(field, random.Random(p), 5)
        if deficient:
            rows = list(ws[1].int_rows())
            rows[2] = rows[0]
            ws[1] = fc.MatrixGF(field, rows)
        blocks = [_matrix_text(w) for w in ws[:4]]
        count = 5
        fifth = _matrix_text(ws[4])
        if later == "a short row":
            fifth[1] = fifth[1].rsplit(" ", 1)[0]
        elif later == "a bad header":
            fifth[0] = fifth[0].replace("4", "four", 1)
        elif later == "another width":
            fifth = _matrix_text(fc.MatrixGF(field, [row[:4] for row in ws[4].int_rows()]))
        elif later == "parts that do not nest":
            rows = ws[4].int_rows()
            # part 2 is rows 2 and 3, which do not span row 1
            fifth = _matrix_text(fc.MatrixGF(field, rows[:1])) + _matrix_text(fc.MatrixGF(field, rows[1:3]))
            for t in range(3, N):
                fifth += _matrix_text(fc.MatrixGF(field, rows[:t]))
        elif later == "an early end":
            count, fifth = 6, []
        elif later == "text after the flags":
            count, fifth = 4, ["junk"]
        elif later == "a repeated flag":
            fifth = blocks[0]
        lines = [f"flagcode {N} {p} {count}", "type 1,2,3,4"]
        for block in blocks + [fifth]:
            lines += block
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("later", sorted(LATER))
    def test_a_rank_deficient_flag_2_is_reported_first(self, p, later):
        error, message = self.LATER[later]
        with pytest.raises(error, match=message):
            fc.load_flag_code(self._text(p, later, deficient=False))
        with pytest.raises(RankDeficientPrefix, match="^first 3 rows have rank 2$"):
            fc.load_flag_code(self._text(p, later, deficient=True))
