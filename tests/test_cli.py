import json

import pytest

from tournkit.cli import main
from tournkit.core import canonical_form
from tournkit.families import family, witness
from tournkit.tfile import load_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_witness_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "w.t"
        code, _, _ = run(capsys, "gen", "--witness", "tau1", "-o", str(out))
        assert code == 0
        assert canonical_form(load_path(out)) == canonical_form(witness("tau1"))

    def test_family_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "f.t"
        code, _, _ = run(capsys, "gen", "--family", "v", "--n", "3", "-o", str(out))
        assert code == 0
        assert canonical_form(load_path(out)) == canonical_form(family("v", 3))

    def test_checked_flag(self, tmp_path, capsys):
        out = tmp_path / "c.t"
        code, _, _ = run(capsys, "gen", "--family", "k", "--n", "3", "--checked", "-o", str(out))
        assert code == 0
        assert load_path(out).n == 5

    def test_st(self, tmp_path, capsys):
        out = tmp_path / "u7.t"
        code, _, _ = run(capsys, "gen", "--st", "u", "--h", "3", "-o", str(out))
        assert code == 0
        assert load_path(out).n == 7

    def test_stdout_when_no_output(self, capsys):
        code, out, _ = run(capsys, "gen", "--witness", "T5")
        assert code == 0
        assert out.startswith("5\n")

    def test_usage_needs_one_source(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "c3", "--witness", "tau1", "--n", "2")
        assert code == 2
        assert "USAGE" in err

    def test_missing_n(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "c3")
        assert code == 2


class TestQueries:
    def test_decompose_two_vertices(self, tmp_path, capsys):
        f = tmp_path / "two.t"
        f.write_text("2\n01\n00\n")
        code, out, _ = run(capsys, "decompose", str(f))
        assert code == 0
        data = json.loads(out)
        assert data["blocks"] == [[0, 1]]
        assert data["quotient"]["n"] == 1

    def test_decompose_k_family(self, tmp_path, capsys):
        f = tmp_path / "k3.t"
        run(capsys, "gen", "--family", "k", "--n", "3", "-o", str(f))
        code, out, _ = run(capsys, "decompose", str(f))
        data = json.loads(out)
        assert data["spectrum"][0] == 2

    def test_decompose_prime_v15(self, tmp_path, capsys):
        # 31 vertices: a 2^31 autonomous-subset scan would never finish here
        f = tmp_path / "v15.t"
        run(capsys, "gen", "--family", "v", "--n", "15", "-o", str(f))
        code, out, _ = run(capsys, "decompose", str(f))
        assert code == 0
        data = json.loads(out)
        assert data["indecomposable"] is True
        assert data["acyclically_indecomposable"] is True
        assert data["spectrum"] == [1] * 31

    def test_profile(self, tmp_path, capsys):
        f = tmp_path / "c34.t"
        run(capsys, "gen", "--family", "c3", "--n", "4", "-o", str(f))
        code, out, _ = run(capsys, "profile", str(f), "--max", "8")
        assert code == 0
        assert json.loads(out)["values"] == [1, 1, 1, 2, 3, 4, 6, 9, 13]

    def test_sum_profile_with_fit(self, tmp_path, capsys):
        f = tmp_path / "c3.t"
        f.write_text("3\n010\n001\n100\n")
        code, out, _ = run(
            capsys, "sum-profile", "--index", str(f), "--caps", "inf,inf,inf", "--max", "14", "--fit", "3"
        )
        assert code == 0
        data = json.loads(out)
        assert data["fit"]["numerator"] == [1, 0, -1, 0, 0, 1, 1]
        assert data["growth"] == {"p": 3, "k": 3, "degree": 2}

    def test_sum_profile_bad_cap(self, tmp_path, capsys):
        f = tmp_path / "c3.t"
        f.write_text("3\n010\n001\n100\n")
        code, _, err = run(capsys, "sum-profile", "--index", str(f), "--caps", "inf,x,1", "--max", "5")
        assert code == 2
        assert "cap" in err

    def test_embed(self, tmp_path, capsys):
        pat = tmp_path / "p.t"
        host = tmp_path / "h.t"
        run(capsys, "gen", "--witness", "tau2", "-o", str(pat))
        run(capsys, "gen", "--family", "k", "--n", "3", "-o", str(host))
        code, out, _ = run(capsys, "embed", str(pat), str(host))
        assert code == 0
        data = json.loads(out)
        assert data["embeds"] is True and len(data["witness"]) == 5

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5")
        assert code == 0
        assert json.loads(out)["count"] == 12

    def test_enumerate_filtered(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--filter", "acyclically-indecomposable")
        data = json.loads(out)
        assert data["count"] == 1


class TestVerifyCommand:
    def test_duality_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "duality", "--max-chain", "2")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_decomposition(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "decomposition", "--n-max", "4")
        assert code == 0

    def test_compactness_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "compactness", "--n", "2", "--size-bound", "5")
        code2, out2, _ = run(
            capsys, "verify", "--suite", "compactness", "--n", "2", "--size-bound", "5", "--threads", "2"
        )
        assert code1 == code2 == 0
        assert out1 == out2


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "decompose", "/nonexistent/path.t")
        assert code == 2

    def test_malformed_file_line_number(self, tmp_path, capsys):
        f = tmp_path / "bad.t"
        f.write_text("3\n010\n011\n100\n")
        code, _, err = run(capsys, "decompose", str(f))
        assert code == 2
        assert "line 3" in err
