from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import flagcodes as fc
from flagcodes import cli
from flagcodes.cli import main
from flagcodes.field import parse_field_name


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_refused_by_parser(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParser:
    def test_one_parser_per_process(self, capsys):
        # each call parses into its own Namespace: the json format of the
        # first verify does not carry over to the second
        build = cli._build_parser
        build.cache_clear()
        rc, stdout, _ = run(capsys, "verify", "--q", "2", "--k", "2", "--h", "0", "--s", "2", "--format", "json")
        assert rc == 0 and json.loads(stdout)["totals"]["failed"] == 0
        rc, stdout, _ = run(capsys, "spectrum", "--q", "2", "--k", "2", "--h", "0", "--s", "2")
        assert rc == 0 and stdout.strip() == "8,10"
        rc, _, stderr = run(capsys, "construct", "--q", "6", "--k", "2", "--h", "0", "--s", "2")
        assert rc == 2 and "error" in stderr
        rc, stdout, _ = run(capsys, "verify", "--q", "2", "--k", "2", "--h", "0", "--s", "2")
        assert rc == 0 and "PASS" in stdout and "FAIL" not in stdout and not stdout.startswith("{")
        assert build.cache_info().misses == 1 and build.cache_info().hits == 3


class TestConstruct:
    def test_full_to_file(self, tmp_path, capsys):
        out = tmp_path / "code.txt"
        rc, stdout, _ = run(
            capsys, "construct", "--q", "2", "--k", "2", "--h", "0", "--s", "2",
            "--family", "full", "--out", str(out),
        )
        assert rc == 0
        assert "5 flags, n = 4, type (1,2,3)" in stdout
        loaded = fc.load_flag_code(out.read_text())
        assert len(loaded) == 5 and loaded.type.dims == (1, 2, 3)

    def test_optimum_to_stdout(self, capsys):
        rc, stdout, stderr = run(
            capsys, "construct", "--q", "2", "--k", "2", "--h", "1", "--s", "3",
            "--family", "optimum",
        )
        assert rc == 0
        assert stdout.startswith("flagcode 7 2 41")
        assert "41 flags, n = 7, type (1,2,5,6)" in stderr
        assert len(fc.load_flag_code(stdout)) == 41

    def test_longer_with_type(self, tmp_path, capsys):
        out = tmp_path / "c.txt"
        rc, stdout, _ = run(
            capsys, "construct", "--q", "2", "--k", "2", "--h", "1", "--s", "3",
            "--family", "longer", "--type", "1,3,5", "--out", str(out),
        )
        assert rc == 0
        assert fc.load_flag_code(out.read_text()).type.dims == (1, 3, 5)

    def test_type_rejected_for_full(self, capsys):
        rc, _, stderr = run(
            capsys, "construct", "--q", "2", "--k", "2", "--h", "0", "--s", "2",
            "--family", "full", "--type", "1,2",
        )
        assert rc == 2 and "error" in stderr

    def test_longer_s4(self, tmp_path, capsys):
        out = tmp_path / "s4.txt"
        rc, stdout, _ = run(
            capsys, "construct", "--q", "2", "--k", "2", "--h", "1", "--s", "4",
            "--family", "longer", "--out", str(out),
        )
        assert rc == 0
        assert "169 flags, n = 9, type (1,2,3,5,7,8)" in stdout

    def test_explicit_modulus_both_forms(self, capsys):
        for text in ("x^2+x+1 over GF(2)", "[1,1,1] @ GF(2)"):
            rc, stdout, stderr = run(
                capsys, "construct", "--q", "4", "--k", "2", "--h", "0", "--s", "2",
                "--family", "full", "--modulus", text,
            )
            assert rc == 0
            assert "17 flags" in stderr  # q^k + 1 over GF(4)

    def test_wrong_modulus_rejected(self, capsys):
        rc, _, _ = run(
            capsys, "construct", "--q", "4", "--k", "2", "--h", "0", "--s", "2",
            "--modulus", "x^2+1 over GF(2)",
        )
        assert rc == 2  # reducible

    def test_format_flag_removed_output_unchanged(self, tmp_path, capsys):
        params = ["--q", "2", "--k", "2", "--h", "1", "--s", "3", "--family", "optimum"]
        # construct, spectrum and distance each had a --format with one choice
        for argv in (
            ["construct", *params, "--format", "text"],
            ["spectrum", *params, "--format", "csv"],
            ["distance", "a.flag", "b.flag", "--format", "text"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --format" in capsys.readouterr().err
        rc, stdout, _ = run(capsys, "construct", *params)
        assert rc == 0
        # the SHA-256 of this output when --format text was still accepted
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        assert digest == "16ce7a92dfdb772da9cd978b73add764bff7809fa709d179fbd4eb6064375b8e"
        out = tmp_path / "opt.txt"
        assert run(capsys, "construct", *params, "--out", str(out))[0] == 0
        assert out.read_text() == stdout
        rc, spectrum, _ = run(capsys, "spectrum", *params)
        assert rc == 0 and spectrum == "12,820\n"

    def test_invalid_params(self, capsys):
        assert run(capsys, "construct", "--q", "6", "--k", "2", "--h", "0", "--s", "2")[0] == 2
        assert run(capsys, "construct", "--q", "2", "--k", "2", "--h", "2", "--s", "2")[0] == 2

    def test_failed_claim_exits_3(self, capsys, monkeypatch):
        # the optimum builder runs the suite's optimum claims: a minimum
        # distance one short of the maximum 12 is a broken theorem
        real = fc.construct.code_flag_min_distance
        monkeypatch.setattr(fc.construct, "code_flag_min_distance", lambda code: real(code) - 1)
        rc, stdout, stderr = run(
            capsys, "construct", "--q", "2", "--k", "2", "--h", "1", "--s", "3",
            "--family", "optimum",
        )
        assert (rc, stdout) == (3, "")
        assert "optimum.min_distance: expected 12, computed 11" in stderr


class TestVerify:
    def test_text_all_pass(self, capsys):
        rc, stdout, _ = run(capsys, "verify", "--q", "2", "--k", "2", "--h", "1", "--s", "2")
        assert rc == 0
        assert "PASS" in stdout and "FAIL" not in stdout

    def test_json_schema(self, capsys):
        rc, stdout, _ = run(
            capsys, "verify", "--q", "2", "--k", "2", "--h", "0", "--s", "2",
            "--format", "json",
        )
        assert rc == 0
        payload = json.loads(stdout)
        assert payload["params"] == {"q": 2, "k": 2, "h": 0, "s": 2, "n": 4}
        assert payload["totals"]["failed"] == 0
        claim = payload["claims"][0]
        assert set(claim) == {"id", "anchor", "expected", "computed", "pass", "seconds"}

    def test_csv(self, capsys):
        rc, stdout, _ = run(
            capsys, "verify", "--q", "2", "--k", "2", "--h", "0", "--s", "2",
            "--format", "csv",
        )
        assert rc == 0
        assert stdout.splitlines()[0] == "q,k,h,s,claim_id,expected,computed,pass,seconds"

    def test_csv_quotes_fields_with_commas(self, capsys):
        # at s = 4, h = 0 skipped claims and their reasons carry commas
        rc, stdout, _ = run(
            capsys, "verify", "--q", "2", "--k", "2", "--h", "0", "--s", "4",
            "--format", "csv",
        )
        assert rc == 0
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows[0] == ["q", "k", "h", "s", "claim_id", "expected", "computed", "pass", "seconds"]
        assert len(rows) > 1 and all(len(row) == 9 for row in rows)
        assert any("," in row[6] for row in rows)

    @pytest.mark.parametrize("command", ["verify", "construct", "spectrum"])
    @pytest.mark.parametrize("option", ["--q", "--k", "--h", "--s"])
    def test_empty_list_is_bad_input(self, capsys, command, option):
        # each parameter is one integer, refused by the parser
        values = {"--q": "2", "--k": "2", "--h": "0", "--s": "2", option: ","}
        argv = [t for pair in values.items() for t in pair]
        rc, stdout, stderr = run_refused_by_parser(capsys, command, *argv)
        assert (rc, stdout) == (2, "")
        assert f"argument {option}: invalid int value: ','" in stderr

    @pytest.mark.parametrize("option", ["--q", "--k", "--h", "--s"])
    def test_comma_list_is_bad_input(self, capsys, option):
        # verify checks one instance; scripts/run_verification_sweep.py runs many
        values = {"--q": "2", "--k": "2", "--h": "0", "--s": "2", option: "2,3"}
        argv = [t for pair in values.items() for t in pair]
        rc, stdout, stderr = run_refused_by_parser(capsys, "verify", *argv)
        assert (rc, stdout) == (2, "")
        assert f"argument {option}: invalid int value: '2,3'" in stderr

    @pytest.mark.parametrize("value", [",", ""], ids=["comma", "empty"])
    @pytest.mark.parametrize("argv", [
        ["verify"], ["construct", "--family", "longer"], ["spectrum", "--family", "longer"],
    ], ids=["verify", "construct-longer", "spectrum-longer"])
    def test_type_naming_no_dimension_is_bad_input(self, capsys, argv, value):
        # else the master type would be run or written under a --type given
        rc, stdout, stderr = run(
            capsys, *argv, "--q", "2", "--k", "2", "--h", "1", "--s", "3", "--type", value,
        )
        assert (rc, stdout) == (2, "")
        assert stderr == "error: --type names no dimension\n"

    def test_type_of_zero_guarantee_refused(self, capsys, monkeypatch):
        # at (2,2,0,4) the guarantee at dim 2k+h = 4 is 2h = 0: type (4,)
        # promises nothing, and is refused before the generator set is built
        def refused(params):
            raise AssertionError("the generator set was built")

        monkeypatch.setattr(fc.construct, "build_generator_set", refused)
        monkeypatch.setattr("flagcodes.cli.build_generator_set", refused)
        qkhs = ("--q", "2", "--k", "2", "--h", "0", "--s", "4", "--type", "4")
        for argv in (("verify", *qkhs), ("construct", *qkhs, "--family", "longer")):
            rc, stdout, stderr = run(capsys, *argv)
            assert rc == 2 and stdout == ""
            assert "guaranteed distance 0: at dim 4" in stderr
        monkeypatch.undo()
        # a type that keeps a dim of positive guarantee is verified
        rc, stdout, _ = run(capsys, "verify", *qkhs[:-1], "1,4")
        assert rc == 0 and "# 33/33 claims passed" in stdout

    def test_type_refused_at_s2(self, capsys):
        # at s = 2 no claim is about the type, so a report under it would
        # claim a check that never ran
        rc, stdout, stderr = run(
            capsys, "verify", "--q", "2", "--k", "2", "--h", "1", "--s", "2",
            "--type", "2,3", "--format", "json",
        )
        assert rc == 2 and stdout == ""
        assert stderr.count("\n") == 1 and "s = 2" in stderr
        # at s = 3 the longer-type claims are about the given type
        rc, stdout, _ = run(
            capsys, "verify", "--q", "2", "--k", "2", "--h", "1", "--s", "3",
            "--type", "1,5", "--format", "json",
        )
        payload = json.loads(stdout)
        assert rc == 0 and payload["type"] == [1, 5]
        longer = [c["anchor"] for c in payload["claims"] if c["id"].startswith("longer.")]
        assert len(longer) == 3 and all("(1, 5)" in a for a in longer)

    def test_roundtrip_code_file(self, tmp_path, capsys):
        out = tmp_path / "opt.txt"
        run(
            capsys, "construct", "--q", "2", "--k", "2", "--h", "1", "--s", "3",
            "--family", "optimum", "--out", str(out),
        )
        rc_plain, plain, _ = run(capsys, "verify", "--q", "2", "--k", "2", "--h", "1", "--s", "3")
        rc, stdout, _ = run(
            capsys, "verify", "--q", "2", "--k", "2", "--h", "1", "--s", "3",
            "--code", str(out),
        )
        assert rc_plain == 0 and rc == 0
        assert "loaded.matches_construction" in stdout
        # the file-backed run reproduces the in-memory claims exactly, plus
        # the loaded.* section
        base = [ln for ln in plain.splitlines() if not ln.startswith("#")]
        with_code = [
            ln for ln in stdout.splitlines()
            if not ln.startswith(("#", "loaded."))
        ]
        assert base == with_code

    def test_corrupted_code_file_fails(self, tmp_path, capsys):
        out = tmp_path / "opt.txt"
        run(
            capsys, "construct", "--q", "2", "--k", "2", "--h", "1", "--s", "3",
            "--family", "optimum", "--out", str(out),
        )
        # overwrite the last flag block with a copy of the first: the set
        # semantics shrink the code, so the size claim must fail
        code = fc.load_flag_code(out.read_text())
        flags = list(code.flags)
        flags[-1] = flags[0]
        broken = fc.FlagCode(code.type, flags)
        text = fc.dump_flag_code(broken)
        # keep the header count faithful to the written blocks
        out.write_text(text)
        rc, stdout, _ = run(
            capsys, "verify", "--q", "2", "--k", "2", "--h", "1", "--s", "3",
            "--code", str(out),
        )
        assert rc == 1
        failing = [ln for ln in stdout.splitlines() if " FAIL " in ln]
        assert any("loaded.cardinality" in ln for ln in failing)

    def test_budget_exhaustion_exit_code(self, capsys):
        # f_1 has degree 67: the family's 2^67 - 1 members are past the
        # flag bound, so the instance is refused before 2^67 - 1 is factored
        rc, stdout, stderr = run(capsys, "verify", "--q", "2", "--k", "67", "--h", "0", "--s", "2")
        assert (rc, stdout) == (3, "")
        assert "more than 262144 flags: q = 2, e = (s-1)k+h = 67" in stderr

    def test_poly_choice_past_last_polynomial(self, capsys):
        # GF(2) has a single primitive quadratic
        rc, _, stderr = run(
            capsys, "verify", "--q", "2", "--k", "2", "--h", "0", "--s", "2",
            "--poly-choice", "1",
        )
        assert rc == 2
        assert stderr.count("\n") == 1 and "degree 2 over GF(2)" in stderr

    @pytest.mark.parametrize("choice", [str(2**63), "9" * 3999], ids=["2^63", "3999-digits"])
    def test_poly_choice_past_every_polynomial_refused_before_the_search(self, capsys, choice):
        # GF(2) has phi(3)/2 = 1 primitive quadratic: a choice past it is
        # refused by that count, not by the search, however large it is
        start = perf_counter()
        rc, stdout, stderr = run(
            capsys, "verify", "--q", "2", "--k", "2", "--h", "0", "--s", "2",
            "--poly-choice", choice,
        )
        assert perf_counter() - start < 1
        assert (rc, stdout) == (2, "")
        assert len(stderr.encode()) < 300 and stderr.count("\n") == 1
        assert "degree 2 over GF(2); there are only 1" in stderr
        shown = choice if len(choice) < 40 else "a 13285-bit number"
        assert f"poly_choice {shown} needs" in stderr


class TestAmbientOnDisk:
    """verify --code refuses a file whose n is not the parameters' n."""

    def test_longer_code_under_other_parameters_is_refused(self, tmp_path, capsys):
        out = tmp_path / "l.code"
        run(capsys, "construct", "--q", "2", "--k", "2", "--h", "1", "--s", "3",
            "--family", "longer", "--out", str(out))
        rc, stdout, stderr = run(capsys, "verify", "--q", "2", "--k", "2", "--h", "0", "--s", "3",
                                 "--code", str(out))
        assert rc == 2 and stdout == ""
        assert "GF(q)^7, but the parameters give n = 6" in stderr
        rc, _, _ = run(capsys, "verify", "--q", "2", "--k", "2", "--h", "1", "--s", "3",
                       "--code", str(out))
        assert rc == 0

    def test_empty_code_is_checked_too(self, tmp_path, capsys):
        out = tmp_path / "empty.code"
        out.write_text(fc.dump_flag_code(fc.FlagCode(fc.TypeVector.full(5), [])))
        rc, stdout, stderr = run(capsys, "verify", "--q", "2", "--k", "2", "--h", "0", "--s", "2",
                                 "--code", str(out))
        assert rc == 2 and stdout == ""
        assert "GF(q)^5, but the parameters give n = 4" in stderr
        # at n = 5 the empty code is read, and fails its cardinality claim
        rc, stdout, _ = run(capsys, "verify", "--q", "2", "--k", "2", "--h", "1", "--s", "2",
                            "--code", str(out))
        assert rc == 1 and "loaded.cardinality 9 0 FAIL" in stdout


class TestModulusOnDisk:
    """A code built over a non-default modulus keeps it through its file."""

    MODULUS = "x^3+x^2+1 over GF(2)"  # GF(8)'s default modulus is x^3+x+1
    PARAMS = ("--q", "8", "--k", "2", "--h", "0", "--s", "2")

    def test_verify_reads_the_modulus_back(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        rc, _, _ = run(capsys, "construct", *self.PARAMS, "--modulus", self.MODULUS, "--out", str(out))
        assert rc == 0
        assert "GF(2^3,x^3+x^2+1)" in out.read_text()
        rc, stdout, _ = run(capsys, "verify", *self.PARAMS, "--modulus", self.MODULUS, "--code", str(out))
        assert rc == 0
        assert 'loaded.matches_construction True True PASS' in stdout
        assert 'loaded.min_distance 8 8 PASS' in stdout

    def test_token_that_disagrees_with_the_modulus_is_refused(self, tmp_path, capsys):
        named = tmp_path / "named.code"
        plain = tmp_path / "plain.code"
        run(capsys, "construct", *self.PARAMS, "--modulus", self.MODULUS, "--out", str(named))
        run(capsys, "construct", *self.PARAMS, "--out", str(plain))
        assert "GF(2^3)" in plain.read_text() and "GF(2^3," not in plain.read_text()
        rc, _, stderr = run(capsys, "verify", *self.PARAMS, "--code", str(named))
        assert rc == 2 and "GF(2^3,x^3+x^2+1)" in stderr
        # a token without a modulus is read as the default one
        rc, _, stderr = run(capsys, "verify", *self.PARAMS, "--modulus", self.MODULUS, "--code", str(plain))
        assert rc == 2 and "GF(2^3)" in stderr
        rc, _, _ = run(capsys, "verify", *self.PARAMS, "--modulus", "x^3+x+1 over GF(2)",
                       "--code", str(plain))
        assert rc == 0


class TestSpectrum:
    def test_smallest_instance(self, capsys):
        rc, stdout, _ = run(
            capsys, "spectrum", "--q", "2", "--k", "2", "--h", "0", "--s", "2",
            "--family", "full",
        )
        assert rc == 0
        assert stdout.strip() == "8,10"

    def test_from_file_min_row(self, tmp_path, capsys):
        out = tmp_path / "longer.txt"
        run(
            capsys, "construct", "--q", "2", "--k", "2", "--h", "1", "--s", "3",
            "--family", "longer", "--out", str(out),
        )
        rc, stdout, _ = run(capsys, "spectrum", "--code", str(out))
        assert rc == 0
        rows = [tuple(int(t) for t in ln.split(",")) for ln in stdout.splitlines()]
        assert rows[0][0] == 16  # matches the code's minimum distance
        assert sum(c for _, c in rows) == 41 * 40 // 2

    def test_singleton_empty(self, tmp_path, capsys):
        gf2 = fc.field_make(2)
        flag = fc.flag_from_matrix(
            fc.MatrixGF.identity(gf2, 4).first_rows(3), fc.TypeVector.full(4)
        )
        code = fc.FlagCode(flag.type, [flag])
        path = tmp_path / "single.txt"
        path.write_text(fc.dump_flag_code(code))
        rc, stdout, _ = run(capsys, "spectrum", "--code", str(path))
        assert rc == 0 and stdout == ""

    def test_needs_input(self, capsys):
        assert run(capsys, "spectrum")[0] == 2

    def test_needs_all_four_parameters(self, capsys):
        rc, _, stderr = run(capsys, "spectrum", "--q", "2", "--k", "2")
        assert rc == 2 and "--q, --k, --h and --s go together" in stderr

    @pytest.mark.parametrize("extra", [
        ["--q", "3"],
        ["--q", "2", "--k", "2", "--h", "0", "--s", "2"],
        ["--family", "optimum"],
        ["--family", "full"],
        ["--type", "1,3"],
        ["--modulus", "x^2+x+1 over GF(2)"],
        ["--poly-choice", "1"],
        ["--poly-choice", "0"],
    ])
    def test_code_refuses_construction_options(self, tmp_path, capsys, extra):
        path = tmp_path / "code.txt"
        run(capsys, "construct", "--q", "2", "--k", "2", "--h", "0", "--s", "2", "--out", str(path))
        rc, stdout, stderr = run(capsys, "spectrum", "--code", str(path), *extra)
        assert rc == 2 and stdout == ""
        assert f"--code cannot be combined with {extra[0]}" in stderr
        assert run(capsys, "spectrum", "--code", str(path))[:2] == (0, "8,10\n")

    def test_subspace_code_file(self, tmp_path, capsys):
        params = fc.ConstructionParams.make(2, 2, 1, 3)
        gen = fc.build_generator_set(params)
        path = tmp_path / "ck.code"
        path.write_text(gen.projected_at_dim(2).dump())
        rc, stdout, _ = run(capsys, "spectrum", "--code", str(path))
        assert rc == 0
        assert stdout.strip() == "4,820"  # every pair of spread planes at distance 4


class TestLargePrime:
    """A pair scan over characteristic p > 257 is refused before its kernel
    is written; the kernel grows as p^2.  Every route that scans refuses it
    before the generator set, of q^(ik+h) flags per family, is built."""

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        def written(p):
            raise AssertionError(f"the GF({p}) kernel was written")

        monkeypatch.setattr("flagcodes.subspace._odd_kernel", written)

    @pytest.mark.parametrize("q", [263, 1031])
    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    def test_refused_fast(self, capsys, command, q):
        start = perf_counter()
        rc, stdout, stderr = run(capsys, command, "--q", str(q), "--k", "1", "--h", "0", "--s", "2")
        assert perf_counter() - start < 1
        assert (rc, stdout) == (3, "")
        assert f"characteristic p = {q}" in stderr and "p above 257 is refused" in stderr

    @pytest.mark.parametrize("argv", [
        ["verify"], ["spectrum"], ["construct", "--family", "optimum"],
        ["construct", "--family", "longer"],
    ], ids=["verify", "spectrum", "construct-optimum", "construct-longer"])
    def test_refused_before_the_set_is_built(self, capsys, monkeypatch, argv):
        # a set over GF(1000003) has 1000004 flags
        def built(params):
            raise AssertionError("the generator set was built")

        monkeypatch.setattr("flagcodes.cli.build_generator_set", built)
        monkeypatch.setattr("flagcodes.construct.build_generator_set", built)
        start = perf_counter()
        rc, stdout, stderr = run(
            capsys, *argv, "--q", "1000003", "--k", "1", "--h", "0", "--s", "2",
        )
        assert perf_counter() - start < 2
        assert (rc, stdout) == (3, "")
        assert "characteristic p = 1000003" in stderr and "p above 257 is refused" in stderr

    def test_construct_full_still_works(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        rc, _, _ = run(
            capsys, "construct", "--q", "1031", "--k", "1", "--h", "0", "--s", "2",
            "--family", "full", "--out", str(out),
        )
        assert rc == 0
        assert len(fc.load_flag_code(out.read_text())) == 1032

    def test_construct_optimum_refused(self, capsys):
        # a refused scan is a budget that ran out, not a failed claim
        rc, stdout, stderr = run(
            capsys, "construct", "--q", "263", "--k", "1", "--h", "0", "--s", "2",
            "--family", "optimum",
        )
        assert (rc, stdout) == (3, "")
        assert "p above 257 is refused" in stderr and "min_distance" not in stderr


class TestNamedFieldRefusals:
    """A field named in a file, by --q or by --modulus is refused fast: a
    prime past the trial-division bound exits 3, as does any --q above
    10^12, and an extension named in a file past the table size exits 2
    before p^e is formed."""

    def refused(self, capsys, *argv):
        start = perf_counter()
        rc, stdout, stderr = run(capsys, *argv)
        assert perf_counter() - start < 2
        assert stdout == ""
        return rc, stderr

    @pytest.mark.parametrize("name, want", [
        ("GF(2305843009213693951)", (3, "needs trial divisors beyond 1000000")),
        ("GF(3^30000000)", (2, "GF(3^30000000) exceeds the supported table size")),
    ], ids=["prime-2^61-1", "extension-3^30000000"])
    def test_distance(self, tmp_path, capsys, name, want):
        path = tmp_path / "f.flag"
        path.write_text(f"type 1\n1 2 {name}\n1 0\n")
        rc, stderr = self.refused(capsys, "distance", str(path), str(path))
        assert rc == want[0] and want[1] in stderr

    def test_distance_over_a_huge_composite(self, tmp_path, capsys):
        # GF(2m), m of 3999 digits with no prime factor below 2000: refused
        # on its size before any trial division, in a message that names
        # its bit length, not its digits
        rng = random.Random(2)
        small = [p for p in range(3, 2000) if all(p % d for d in range(2, p))]
        m = rng.randrange(10**3998, 10**3999) | 1
        while any(m % p == 0 for p in small):
            m = rng.randrange(10**3998, 10**3999) | 1
        path = tmp_path / "f.flag"
        path.write_text(f"type 1\n1 2 GF({2 * m})\n1 0\n")
        start = perf_counter()
        rc, stdout, stderr = run(capsys, "distance", str(path), str(path))
        assert perf_counter() - start < 0.5
        assert (rc, stdout) == (3, "") and len(stderr) < 300
        assert f"a {(2 * m).bit_length()}-bit number" in stderr
        assert stderr.endswith("needs trial divisors beyond 1000000\n")

    def test_modulus_over_a_large_prime(self, capsys):
        rc, stderr = self.refused(
            capsys, "verify", "--q", "4", "--k", "2", "--h", "0", "--s", "2",
            "--modulus", "x^2+x+1 over GF(2305843009213693951)",
        )
        assert rc == 3 and "needs trial divisors beyond 1000000" in stderr

    def test_huge_order(self, capsys):
        # 2 (10^3998 + 1): refused on its size before any trial division
        q = 2 * (10**3998 + 1)
        start = perf_counter()
        rc, stdout, stderr = run(
            capsys, "verify", "--q", str(q), "--k", "2", "--h", "0", "--s", "2",
        )
        assert perf_counter() - start < 1
        assert (rc, stdout) == (3, "") and len(stderr) < 300
        assert f"field order a {q.bit_length()}-bit number is above 10^12" in stderr

    def test_order_of_a_power_of_two_past_the_bound(self, capsys):
        # GF(2^50) exceeds the table size, but --q is refused on its size
        # first: exit 3, not 2
        rc, stderr = self.refused(
            capsys, "verify", "--q", str(2**50), "--k", "2", "--h", "0", "--s", "2",
        )
        assert rc == 3 and "field order 1125899906842624 is above 10^12" in stderr

    def test_modulus_with_an_order_that_is_no_prime_power(self, capsys):
        rc, stderr = self.refused(
            capsys, "verify", "--q", "6", "--k", "2", "--h", "0", "--s", "2",
            "--modulus", "x^2+x+1 over GF(2)",
        )
        assert (rc, stderr) == (2, "error: 6 is not a prime power\n")


class TestOversizedInstances:
    """An instance whose generator set has more than 2^18 flags is refused
    (exit 3) before its polynomial search and before anything is sized off
    it; a value of any length reaches the same checks, and no message
    spells out a huge number."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--k", "9" * 50, "--s", "2"],
        ["verify", "--k", "2", "--s", "9" * 3999],
        ["verify", "--k", "100", "--s", "2"],
        ["verify", "--k", "100000", "--s", "2"],
        ["verify", "--k", "10000000", "--s", "2"],
        ["construct", "--k", "100", "--s", "3"],
        ["construct", "--k", "100", "--s", "3", "--family", "longer"],
        ["spectrum", "--k", "100", "--s", "3", "--family", "longer"],
        # 2^39 + 2^26 + 2^13 + 1 flags, fewer than 10^12
        ["construct", "--k", "13", "--s", "4"],
        ["verify", "--k", "13", "--s", "4"],
    ], ids=["k-50-digits", "s-3999-digits", "k-100", "k-100000", "k-10^7",
            "construct", "construct-longer", "spectrum-longer", "construct-k13-s4", "verify-k13-s4"])
    def test_refused_before_the_search(self, capsys, monkeypatch, argv):
        def searched(field, d):
            raise AssertionError("a primitive polynomial was searched for")

        monkeypatch.setattr("flagcodes.construct.iter_primitive_polys", searched)
        start = perf_counter()
        rc, stdout, stderr = run(capsys, *argv, "--q", "2", "--h", "0")
        assert perf_counter() - start < 1
        assert (rc, stdout) == (3, "") and len(stderr) < 300
        assert "the generator set has more than 262144 flags" in stderr

    @pytest.mark.parametrize("option", ["--q", "--k", "--h", "--s"])
    def test_huge_values_past_the_int_to_str_limit(self, capsys, option):
        # int() reads at most 4,300 digits; 4,301 must fare as 3,999 do
        results = []
        for digits in (3999, 4301):
            values = {"--q": "2", "--k": "2", "--h": "0", "--s": "2", option: "9" * digits}
            rc, stdout, stderr = run(capsys, "verify", *(t for pair in values.items() for t in pair))
            assert stdout == "" and len(stderr) < 300
            results.append(rc)
        assert results[0] == results[1] == (2 if option == "--h" else 3)


def run_capped(tmp_path, *argv):
    """The CLI in a process of its own whose address space is capped at
    600 MB, so that a size an input declares cannot be allocated for long:
    (exit code, stderr, seconds)."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "flagcodes.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=cap)
    return proc.returncode, proc.stderr, perf_counter() - start


class TestDeclaredSizes:
    """A size that an input declares, but that no flag or field has, is
    refused before anything of that size is made: exit 2 within a second,
    a short message and no traceback."""

    def assert_refused(self, tmp_path, *argv, message):
        rc, stderr, seconds = run_capped(tmp_path, *argv)
        assert (rc, stderr) == (2, f"error: {message}\n") and len(stderr) < 300
        assert seconds < 1

    ZERO_COLUMNS = "matrix header '9999999999 0 GF(2)' has 0 columns, but no flag or word does"

    def test_distance_of_a_0_column_flag(self, tmp_path):
        (tmp_path / "z.flag").write_text("type 1\n9999999999 0 GF(2)\n")
        self.assert_refused(tmp_path, "distance", "z.flag", "z.flag", message=self.ZERO_COLUMNS)

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_code_with_a_0_column_flag(self, tmp_path, command):
        (tmp_path / "z.code").write_text("flagcode 2 2 1\ntype 1\n9999999999 0 GF(2)\n")
        params = ["--q", "2", "--k", "2", "--h", "0", "--s", "2"] if command == "verify" else []
        self.assert_refused(tmp_path, command, *params, "--code", "z.code", message=self.ZERO_COLUMNS)

    def test_modulus_option_of_a_huge_degree(self, tmp_path):
        self.assert_refused(
            tmp_path, "verify", "--q", "4", "--k", "2", "--h", "0", "--s", "2",
            "--modulus", "x^9999999999+1 over GF(2)",
            message="modulus degree 9999999999 != extension degree 2",
        )

    def test_modulus_in_a_file_of_a_huge_degree(self, tmp_path):
        (tmp_path / "m.flag").write_text("type 1\n1 2 GF(2^2,x^9999999999+1)\n1 0\n")
        self.assert_refused(tmp_path, "distance", "m.flag", "m.flag",
                            message="modulus degree 9999999999 != extension degree 2")

    def test_empty_code_with_a_huge_q(self, tmp_path):
        q = 2 * (10**4000 + 1)
        (tmp_path / "q.code").write_text(f"flagcode 3 {q} 0\ntype 1,2\n")
        self.assert_refused(tmp_path, "spectrum", "--code", "q.code", message=(
            f"empty code: header says q = a {q.bit_length()}-bit number, which is not 0"))

    @pytest.mark.parametrize("load, text", [
        (fc.load_flag, "type 1\n5 0 GF(2)\n"),
        (fc.load_flag_code, "flagcode 2 2 1\ntype 1\n5 0 GF(2)\n"),
        (fc.SubspaceCode.load, "2 1 2 1\n5 0 GF(2)\n"),
    ], ids=["flag", "flag-code", "subspace-code"])
    def test_loaders_refuse_0_columns(self, load, text):
        with pytest.raises(ValueError, match="'5 0 GF\\(2\\)' has 0 columns"):
            load(text)

    def test_a_modulus_of_another_small_degree_keeps_its_message(self, tmp_path, capsys):
        message = "error: modulus degree 3 != extension degree 2\n"
        rc, stdout, stderr = run(capsys, "verify", "--q", "4", "--k", "2", "--h", "0", "--s", "2",
                                 "--modulus", "x^3+1 over GF(2)")
        assert (rc, stdout, stderr) == (2, "", message)
        path = tmp_path / "m.flag"
        path.write_text("type 1\n1 2 GF(2^2,x^3+1)\n1 0\n")
        rc, stdout, stderr = run(capsys, "distance", str(path), str(path))
        assert (rc, stdout, stderr) == (2, "", message)

    def test_a_top_term_that_reduces_to_0_is_no_term(self):
        # 2x^3 is 0 over GF(2), so the modulus is x^2 + x + 1, as before the check
        field = parse_field_name("GF(2^2,2x^3+x^2+x+1)")
        assert field == fc.field_make(2, 2, [1, 1, 1])


class TestDistance:
    def make_flag_files(self, tmp_path):
        gf2 = fc.field_make(2)
        co = fc.flag_from_matrix(
            fc.MatrixGF.identity(gf2, 4).first_rows(3), fc.TypeVector.full(4)
        )
        rev = fc.flag_from_matrix(
            fc.MatrixGF(gf2, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]),
            fc.TypeVector.full(4),
        )
        a = tmp_path / "a.flag"
        b = tmp_path / "b.flag"
        a.write_text(fc.dump_flag(co))
        b.write_text(fc.dump_flag(rev))
        return a, b

    def test_identical(self, tmp_path, capsys):
        a, _ = self.make_flag_files(tmp_path)
        rc, stdout, _ = run(capsys, "distance", str(a), str(a))
        assert rc == 0 and stdout.strip() == "0"

    def test_reversed_coordinates(self, tmp_path, capsys):
        a, b = self.make_flag_files(tmp_path)
        rc, stdout, _ = run(capsys, "distance", str(a), str(b))
        assert rc == 0 and stdout.strip() == "8"

    def test_type_mismatch(self, tmp_path, capsys):
        a, _ = self.make_flag_files(tmp_path)
        gf2 = fc.field_make(2)
        short = fc.flag_from_matrix(
            fc.MatrixGF.identity(gf2, 4).first_rows(2), fc.TypeVector(4, (1, 2))
        )
        c = tmp_path / "c.flag"
        c.write_text(fc.dump_flag(short))
        rc, _, stderr = run(capsys, "distance", str(a), str(c))
        assert rc == 2 and "error" in stderr

    def test_file_with_two_flags(self, tmp_path, capsys):
        a, b = self.make_flag_files(tmp_path)
        both = tmp_path / "both.flag"
        both.write_text(a.read_text() + b.read_text())
        rc, stdout, stderr = run(capsys, "distance", str(both), str(b))
        assert rc == 2 and stdout == "" and "text after the flag" in stderr

    def test_missing_file(self, tmp_path, capsys):
        a, _ = self.make_flag_files(tmp_path)
        rc, _, _ = run(capsys, "distance", str(a), str(tmp_path / "nope.flag"))
        assert rc == 2
