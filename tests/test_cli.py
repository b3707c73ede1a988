from __future__ import annotations

import csv
import hashlib
import io
import json

import pytest

import flagcodes as fc
from flagcodes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_report_alias_defaults_to_json(self, capsys):
        rc, stdout, _ = run(capsys, "report", "--q", "2", "--k", "2", "--h", "0", "--s", "2")
        assert rc == 0
        assert json.loads(stdout)["totals"]["failed"] == 0

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

    def test_sweep(self, capsys):
        rc, stdout, _ = run(
            capsys, "verify", "--sweep", "--q", "2", "--k", "2", "--h", "0,1",
            "--s", "2", "--format", "json",
        )
        assert rc == 0
        payload = json.loads(stdout)
        assert len(payload["reports"]) == 2

    def test_sweep_required_for_lists(self, capsys):
        rc, _, _ = run(capsys, "verify", "--q", "2,3", "--k", "2", "--h", "0", "--s", "2")
        assert rc == 2

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("option", ["--q", "--k", "--h", "--s"])
    def test_empty_list_is_bad_input(self, capsys, command, option):
        # an empty grid would report nothing verified and exit 0
        values = {"--q": "2", "--k": "2", "--h": "0", "--s": "2", option: ","}
        argv = [t for pair in values.items() for t in pair]
        rc, stdout, stderr = run(capsys, command, "--sweep", *argv, "--format", "json")
        assert rc == 2 and stdout == ""
        assert f"{option} names no value" in stderr

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
        rc, _, stderr = run(
            capsys, "verify", "--q", "2", "--k", "2", "--h", "1", "--s", "2",
            "--factor-cap", "1",
        )
        assert rc == 3 and "error" in stderr

    @pytest.mark.parametrize("command,extra", [
        ("verify", ["--factor-cap", "-1"]),
        # refused before q = 4 is factored with the cap
        ("verify", ["--factor-cap", "0", "--modulus", "x^2+x+1 over GF(2)"]),
        ("construct", ["--factor-cap", "-7"]),
    ])
    def test_factor_cap_below_one_is_bad_input(self, capsys, command, extra):
        rc, stdout, stderr = run(
            capsys, command, "--q", "4", "--k", "2", "--h", "0", "--s", "2", *extra,
        )
        assert (rc, stdout) == (2, "")
        assert stderr == f"error: --factor-cap must be >= 1, got {extra[1]}\n"

    def test_poly_choice_past_last_polynomial(self, capsys):
        # GF(2) has a single primitive quadratic
        rc, _, stderr = run(
            capsys, "verify", "--q", "2", "--k", "2", "--h", "0", "--s", "2",
            "--poly-choice", "1",
        )
        assert rc == 2
        assert stderr.count("\n") == 1 and "degree 2 over GF(2)" in stderr


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
        ["--sweep"],
        ["--poly-choice", "1"],
        ["--poly-choice", "0"],
        ["--factor-cap", "5"],
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
