import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from tournkit import cli, decomp
from tournkit.cli import main
from tournkit.core import canonical_form, chain, cycle3, lex_sum
from tournkit.decomp import (
    acyclic_components,
    is_acyclically_indecomposable,
    is_indecomposable,
    monomorphic_components,
)
from tournkit.families import family, witness
from tournkit.tfile import dump_path, dumps, load_path
from tournkit.verify import SuiteReport

from conftest import random_tournament


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

    @pytest.mark.parametrize(
        "text, payload",
        [
            ("0\n", {"n": 0, "blocks": [], "spectrum": [], "quotient": {"n": 0, "matrix": []},
                     "acyclically_indecomposable": True, "indecomposable": True, "monomorphic_components": []}),
            ("1\n0\n", {"n": 1, "blocks": [[0]], "spectrum": [1], "quotient": {"n": 1, "matrix": ["0"]},
                         "acyclically_indecomposable": True, "indecomposable": True,
                         "monomorphic_components": [[0]]}),
            # a single edge is a LINEAR root, yet no autonomous set lies strictly between
            ("2\n01\n00\n", {"n": 2, "blocks": [[0, 1]], "spectrum": [2], "quotient": {"n": 1, "matrix": ["0"]},
                              "acyclically_indecomposable": False, "indecomposable": True,
                              "monomorphic_components": [[0, 1]]}),
        ],
        ids=["n0", "n1", "n2"],
    )
    def test_decompose_tiny_cases_exact(self, text, payload, tmp_path, capsys):
        f = tmp_path / "tiny.t"
        f.write_text(text)
        code, out, _ = run(capsys, "decompose", str(f))
        assert code == 0
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

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

    @pytest.mark.parametrize(
        "t",
        [
            chain(1),
            cycle3(),
            chain(7),
            lex_sum(cycle3(), [chain(3)] * 3),
            family("c3", 3),
            family("v", 4),
            family("t", 5),
            witness("tau2"),
            *(random_tournament(random.Random(seed), 9) for seed in range(4)),
        ],
    )
    def test_decompose_one_decomposition(self, t, tmp_path, capsys, monkeypatch):
        # the output the command printed when it ran each library call on its own
        d = acyclic_components(t)
        payload = {
            "n": t.n,
            "blocks": [list(b) for b in d.blocks],
            "spectrum": list(d.spectrum),
            "quotient": {"n": d.quotient.n, "matrix": dumps(d.quotient).splitlines()[1:]},
            "acyclically_indecomposable": is_acyclically_indecomposable(t),
            "indecomposable": is_indecomposable(t),
            "monomorphic_components": [list(b) for b in monomorphic_components(t)],
        }
        f = tmp_path / "t.t"
        dump_path(t, f)
        calls = []

        def counted(t):
            calls.append(t)
            return acyclic_components(t)

        monkeypatch.setattr(cli, "acyclic_components", counted)
        monkeypatch.setattr(decomp, "acyclic_components", counted)
        code, out, _ = run(capsys, "decompose", str(f))
        assert code == 0
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert len(calls) == 1

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

    def test_module_entry_point(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "tournkit", "enumerate", "--n", "3"],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["count"] == 2

    def test_enumerate_filtered(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--filter", "acyclically-indecomposable")
        data = json.loads(out)
        assert data["count"] == 1

    @pytest.mark.parametrize("argv, digest", [
        (["--n", "0"], "bf45a9c5737e10913db816b4d5e0076e84bfb26ba2cb04025f7b63c8f71c33fb"),
        (["--n", "1"], "89080066ec0eda1451a6669064cc6998ee78a05c1e433bb41d961dd2524c81f0"),
        (["--n", "2"], "6dcab69aec35af8bc7a0b60b490c38821acc1c3f13a1597ee1afdb14474fad06"),
        (["--n", "3"], "819a1490a68aa53801b654e30842fbd1c34643f6174386cae7103059e2eeebba"),
        (["--n", "4"], "2ec94a433ef94b5251810a06d433befd336aa29468c3ead8b9a9609bb018b8dc"),
        (["--n", "5"], "c34675a4261d3aa9eb57bab82f34bd97ae0dd48db5943288f63204713a604a61"),
        (["--n", "6"], "9d0a0bb236db881daa59962a9ee0e7f0c45debc14c7e3361986db40c49b6de37"),
        (["--n", "7"], "3152c241a3ea96dc08d5ba6c81f44e842457be76d608da4bcc98142f3db59ac5"),
        (["--n", "2", "--filter", "acyclically-indecomposable"],
         "5eee074b74581ec3633c1c796822681381916add51c8c62882cd308d2d9a4bfe"),
        (["--n", "3", "--filter", "acyclically-indecomposable"],
         "566c32cf6241d8fbb5219e3ad467a1735faf199bc87f3b3e1d44e339330f1e79"),
        (["--n", "6", "--filter", "acyclically-indecomposable"],
         "3e83ef0c3ef33bef17169f6519976418f63f4b77fc208eb5c37dbb5bdcbc7252"),
    ], ids=[*(f"n{n}" for n in range(8)), "ai2", "ai3", "ai6"])
    def test_enumerate_stdout_pinned(self, capsys, argv, digest):
        # the bytes json.dump(..., sort_keys=True, indent=2) wrote when the
        # whole document was built first; n = 0 lists one empty matrix and
        # the filtered n = 2 an empty list (n = 8 is pinned by the memory test)
        code, out, _ = run(capsys, "enumerate", *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_enumerate_streams_in_little_memory(self, monkeypatch):
        # 0.65 MB traced at n = 8, against 5.3 MB when the tournaments and
        # the document were held whole
        digest = hashlib.sha256()

        class Sink:
            def write(self, text):
                digest.update(text.encode())

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Sink())
        tracemalloc.start()
        try:
            code = main(["enumerate", "--n", "8"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert digest.hexdigest() == "f2573d18589ede3c658c04a15a82b348a2f13378e2c62915929b9cbf22a6870c"
        assert peak < 2 * 2**20

    def test_closed_stdout_ends_quietly(self):
        # the n = 8 document (1.2 MB) outgrows the pipe, so the writer meets
        # the closed end
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen([sys.executable, "-m", "tournkit", "enumerate", "--n", "8"],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(100).startswith(b'{\n  "count": 6880,')
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == cli.CLOSED_STDOUT_EXIT
        assert err == b""


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
        code2, out2, _ = run(capsys, "verify", "--suite", "compactness", "--n", "2", "--size-bound", "5")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("argv, digest", [
        (["decomposition", "--n-max", "6"], "64a13094c50ced7f0540de2ceb6055b3a92027e6c2a5ec34aec0f8f1b0d3d670"),
        (["formulas", "--n-max", "9"], "abfa762a53f072ca2fba00ce4bd7abd6e6f48fdece14f7edd0ad0f6a600f0fe3"),
        (["incomparability", "--host-size", "14"], "914f8aa104e928f9f4f1c7e92da5174dcf1e12a4b21cd0d99a44b53cdfefd567"),
        (["duality", "--max-chain", "5"], "bec4b167ea4846623d945ca1f7d9eed10236a0599ef8b224ff73e7c7d5cb2707"),
        (["compactness", "--n", "2", "--size-bound", "8"],
         "d0694e2220c985c96b203b68cfb5624f702ae49e1710cfe5f22c79d426ad453c"),
        (["compactness", "--n", "3", "--size-bound", "8"],
         "c239e032a51138edb9ff3aeafdc34950eb0609053401fd79119affe2c381a961"),
    ], ids=["decomposition", "formulas", "incomparability", "duality", "compactness-n2", "compactness-n3"])
    def test_suite_stdout_pinned(self, capsys, argv, digest):
        # every suite's report at its acceptance parameters, byte for byte
        code, out, _ = run(capsys, "verify", "--suite", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("suite, flag", [
        ("compactness", "--size-bound"),
        ("decomposition", "--n-max"),
        ("duality", "--max-chain"),
        ("incomparability", "--host-size"),
        ("formulas", "--n-max"),
    ])
    def test_negative_bound_exits_2(self, capsys, suite, flag):
        code, out, err = run(capsys, "verify", "--suite", suite, flag, "-1")
        assert code == 2
        assert out == ""
        assert "OUT_OF_RANGE" in err

    @pytest.mark.parametrize(
        "suite, check, argv, expect",
        [
            ("decomposition", "check_decomposition", ["--n-max", "3"], (3,)),
            ("formulas", "check_profile_formulas", ["--n-max", "4"], (4,)),
            ("incomparability", "check_incomparability", ["--host-size", "5"], (5,)),
            ("duality", "check_duality", ["--max-chain", "2"], (2,)),
            ("compactness", "check_compactness", ["--n", "3", "--size-bound", "6"], (3, 6)),
        ],
    )
    def test_suite_dispatch_looks_check_up_when_run(self, monkeypatch, capsys, suite, check, argv, expect):
        # a check rebound on the module after import (as a tracer does) is the one run
        seen = []
        monkeypatch.setattr(cli, check, lambda *a: seen.append(a) or SuiteReport(suite, {}))
        code, out, _ = run(capsys, "verify", "--suite", suite, *argv)
        assert code == 0
        assert seen == [expect]
        assert json.loads(out)["suite"] == suite

    def test_unknown_suite_lists_choices_in_order(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["verify", "--suite", "nope"])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "{decomposition,formulas,incomparability,duality,compactness}" in err


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

    def test_negative_profile_size(self, tmp_path, capsys):
        f = tmp_path / "c3.t"
        f.write_text("3\n010\n001\n100\n")
        for argv in (("profile", str(f), "--max", "-1"),
                     ("sum-profile", "--index", str(f), "--caps", "inf,inf,inf", "--max", "-1")):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "OUT_OF_RANGE" in err
