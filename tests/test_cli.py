"""Command-line interface: exit codes, determinism, and output formats."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from sphmop import cli
from sphmop.structure import build_structures
from sphmop.orthogonality import build_weight
from sphmop.family import build_family

from conftest import parse_gaussian
from test_orthogonality import oracle_inner_product


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_verify_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--ell", "2", "--wmax", "3")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_verify_reports_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "verify_rows",
            lambda ell, wmax: iter([("broken", "w=0 entry (0,0): 1 != 0")]))
        code, out, err = run(capsys, "verify", "--ell", "2", "--wmax", "1")
        assert code == 1
        assert out.splitlines()[:2] == ["FAIL  broken",
                                        "      w=0 entry (0,0): 1 != 0"]

    def test_negative_ell(self, capsys):
        code, out, err = run(capsys, "structures", "--ell", "-1")
        assert code == 2
        assert "nonnegative" in err

    def test_missing_arguments(self, capsys):
        assert run(capsys, "structures")[0] == 2
        assert run(capsys, "nonsense")[0] == 2

    def test_cover_file_errors(self, capsys, tmp_path):
        code, out, err = run(capsys, "cover", str(tmp_path / "missing.json"))
        assert code == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps((2.0 * np.eye(4)).tolist()))
        code, out, err = run(capsys, "cover", str(bad))
        assert code == 2
        assert "error" in err
        for entry in ("NaN", "Infinity", "-Infinity"):
            bad.write_text("[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,%s]]"
                           % entry)
            code, out, err = run(capsys, "cover", str(bad))
            assert code == 2, entry
            assert out == "" and "error" in err, entry
        # JSON that is no nested list of numbers: a scalar, null, an
        # object, a ragged list, the identity as strings and as booleans,
        # and the identity with one boolean among its numbers
        eye = np.eye(4, dtype=int).tolist()
        for text in ("5", "null", '{"a": 1}', "[[1, 2], [3]]",
                     json.dumps([[str(x) for x in row] for row in eye]),
                     json.dumps([[bool(x) for x in row] for row in eye]),
                     json.dumps([[True, 0, 0, 0]] + eye[1:])):
            bad.write_text(text)
            code, out, err = run(capsys, "cover", str(bad))
            assert code == 2, text
            assert out == "" and "error" in err, text

    def test_weight_sample_out_of_range(self, capsys):
        for sample in ("2.0", "0.5,-1.5", "nan", "inf", "0.0,-inf", "x"):
            code, out, err = run(capsys, "weight", "--ell", "2",
                                 "--sample", sample)
            assert code == 2, sample
            assert out == "" and "error" in err, sample

    def test_reconstruct_theta_not_finite(self, capsys):
        for theta in ("nan", "inf", "0.0,-inf", "x"):
            code, out, err = run(capsys, "reconstruct", "--ell", "2", "--w",
                                 "1", "--k", "1", "--theta", theta)
            assert code == 2, theta
            assert out == "" and "error" in err, theta

    @pytest.mark.parametrize("argv, message", [
        (("weight", "--ell", "2", "--sample", "abc"),
         "--sample value 'abc' is not a number in [-1, 1]"),
        (("reconstruct", "--ell", "2", "--w", "0", "--k", "0",
          "--theta", "0.1,abc"),
         "--theta value 'abc' is not a finite number"),
        (("weight", "--ell", "2", "--sample", "0.1,,0.2"),
         "--sample value '' is not a number in [-1, 1]"),
    ], ids=["sample-abc", "theta-abc", "sample-empty"])
    def test_bad_token_names_its_option(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_odd_ell_warns(self, capsys):
        code, out, err = run(capsys, "eigen", "--ell", "1", "--wmax", "1")
        assert code == 0
        assert "odd ell" in err


VERIFY_ELL2_WMAX2 = """\
PASS  (C0+C1)*U = U*diag(-j(j+1))
PASS  U**U diagonal with entries (j+l+1)!(l-j)!/((2j+1) l! l!)
PASS  Uinv*A0*U = Q0+Q1
PASS  Uinv*(C1+C0)*U = -V0
PASS  Uinv*(C1-C0)*U = Q1*J - Q0*(J+1)
PASS  coefficient recursion = Racah closed form
PASS  coefficient tail a_j = 0 for j > w+k
PASS  Dbar*P_w = P_w*Lambda_w
PASS  Ebar*P_w = P_w*M_w
PASS  Dtilde*Pt_w = Pt_w*Lambda_w
PASS  Etilde*Pt_w = Pt_w*M_w
PASS  deg Pt_w = w with invertible diagonal leading coeff
PASS  PsiInv*Dbar*Psi = Dtilde
PASS  PsiInv*Ebar*Psi = Etilde
PASS  [Dbar, Ebar] = 0 on monomials to degree 12
PASS  <Pt_w, Pt_w'> = 0 for w != w'
PASS  <Pt_w, Pt_w> diagonal and invertible
PASS  trace normalization equals l+1
PASS  Dtilde symmetric on the family
PASS  Etilde symmetric on the family
PASS  LDU reassembly equals the weight polynomial part
PASS  commutant dimension and block reduction
all checks passed (ell=2, wmax=2)
"""


PINNED_DIGESTS = {
    "structures":
        "7fac5a7b7c70d2672ab951fcc500de21abafe7ca5dec24c251fe415d8dfe4ddf",
    "gram":
        "34a0ac0649655db9304a059574c1a9bf60d5b8fe59e4113c35ff3c4c069ecd6d",
    "gram --csv":
        "79e913f3527c6d2e8d8889977af0cf7f9e1c6ba88ce8b21d3e7c73a6f8b8d1f0",
    "eigen":
        "afeeb05001dcd7843e6bda4d8829ca925d841917245a80e6dc911881149f4436",
    "reduce":
        "033db7e8b1699994577bce93bb213afc513c01b57322f19183eb6b53858ab8c3",
    "family":
        "1f19cc1df7abfc164da2061b4d9216ad2bea0d53ec11e0c18e564e9e27296890",
}


# sha256 of `structures` at odd ell and the band edges: ell = 0 has no
# off-diagonal band, ell = 1 has one entry in each
STRUCTURES_DIGESTS = {
    0: "c00868e5adf2962fd239b1ffbdb5420d0cecfc7ae8209bb10dc63bb0c07ddb94",
    1: "a447ec26de429b8c56d4242de5a375d20b64ed2a4a2f564af3f9ebdc2ab9ad36",
    3: "d664507194d492173c65dae3a4138182ff0c2df1597212af2a898afd41761a6e",
    9: "962ce0a9832ba620c4c1befa805c794f22e626db363fef519404125168d95616",
}


class TestDeterminism:
    def test_verify_report_is_pinned(self, capsys):
        # row labels and their order are part of the output contract
        assert run(capsys, "verify", "--ell", "2", "--wmax", "2") \
            == (0, VERIFY_ELL2_WMAX2, "")

    def test_verify_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "--ell", "2", "--wmax", "4")
        _, out2, _ = run(capsys, "verify", "--ell", "2", "--wmax", "4")
        assert out1 == out2

    def test_structures_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "structures", "--ell", "4")
        _, out2, _ = run(capsys, "structures", "--ell", "4")
        assert out1 == out2

    @pytest.mark.parametrize("ell", sorted(STRUCTURES_DIGESTS))
    def test_structures_pinned(self, capsys, ell):
        code, out, _ = run(capsys, "structures", "--ell", str(ell))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() \
            == STRUCTURES_DIGESTS[ell]

    def test_outputs_pinned(self, capsys, tmp_path):
        # sha256 of exact outputs, taken before the scalar became an integer
        # triple: the JSON writers read format_gaussian, the gram CSV reads
        # the re and im properties, and none of them may change a byte
        def digest(*argvs):
            h = hashlib.sha256()
            for argv in argvs:
                code, out, _ = run(capsys, *argv)
                assert code == 0
                h.update(out.encode())
            return h.hexdigest()

        got = {
            "structures": digest(("structures", "--ell", "6")),
            "gram": digest(("gram", "--ell", "4", "--wmax", "3")),
            "gram --csv": digest(("gram", "--ell", "6", "--wmax", "4",
                                  "--csv")),
            "eigen": digest(("eigen", "--ell", "2", "--wmax", "3")),
            "reduce": digest(*(("reduce", "--ell", str(ell))
                               for ell in range(9))),
        }
        assert run(capsys, "family", "--ell", "3", "--wmax", "3",
                   "--out", str(tmp_path))[0] == 0
        h = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        got["family"] = h.hexdigest()
        assert got == PINNED_DIGESTS


class TestOutputFormats:
    def test_structures_json_round_trip(self, capsys):
        code, out, err = run(capsys, "structures", "--ell", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["ell"] == 2
        st = build_structures(2)
        entry = doc["matrices"]["C"]["entries"][0][0]
        assert parse_gaussian(entry[0]) == st.C[0, 0].constant_term()

    def test_eigen_table(self, capsys):
        code, out, err = run(capsys, "eigen", "--ell", "2", "--wmax", "2")
        doc = json.loads(out)
        assert len(doc["ledger"]) == 9
        first = doc["ledger"][0]
        assert (first["w"], first["k"], first["lambda"]) == (0, 0, 0)

    def test_gram_json(self, capsys):
        code, out, err = run(capsys, "gram", "--ell", "2", "--wmax", "1")
        doc = json.loads(out)
        assert set(doc["gram"]) == {"0", "1"}
        fam, W = build_family(2, 1), build_weight(2)
        for w in (0, 1):
            G = oracle_inner_product(fam.PwTilde[w], fam.PwTilde[w], W)
            entries = doc["gram"][str(w)]["entries"]
            assert [[parse_gaussian(e[0]) if e else 0 for e in row]
                    for row in entries] == G.constant_value()

    def test_gram_csv_round_trip(self, capsys):
        code, out, err = run(capsys, "gram", "--ell", "1", "--wmax", "0",
                             "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# w=0"
        assert lines[1] == "row,col,re,im"
        P = build_family(1, 0).PwTilde[0]
        G = oracle_inner_product(P, P, build_weight(1))
        from fractions import Fraction
        for line in lines[2:]:
            i, j, re, im = line.split(",")
            c = G[int(i), int(j)].constant_term()
            assert (c.re, c.im) == (Fraction(re), Fraction(im))

    def test_family_files(self, capsys, tmp_path):
        out_dir = tmp_path / "fam"
        code, out, err = run(capsys, "family", "--ell", "2", "--wmax", "1",
                             "--out", str(out_dir))
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["P_ell2_w0.json", "P_ell2_w1.json",
                         "Ptilde_ell2_w0.json", "Ptilde_ell2_w1.json"]
        doc = json.loads((out_dir / "Ptilde_ell2_w0.json").read_text())
        assert doc["rows"] == doc["cols"] == 3
        assert doc["entries"][0][0] == ["1"]

    def test_matrix_schema(self, capsys, tmp_path):
        # the README's matrix object: exactly rows, cols, var and entries,
        # and every polynomial is in u
        def matrices(doc):
            if isinstance(doc, dict):
                if "entries" in doc:
                    yield doc
                else:
                    for value in doc.values():
                        yield from matrices(value)

        _, out, _ = run(capsys, "structures", "--ell", "2")
        found = list(matrices(json.loads(out)))
        _, out, _ = run(capsys, "gram", "--ell", "2", "--wmax", "2")
        found += list(matrices(json.loads(out)))
        out_dir = tmp_path / "fam"
        run(capsys, "family", "--ell", "2", "--wmax", "1",
            "--out", str(out_dir))
        for path in sorted(out_dir.iterdir()):
            found += list(matrices(json.loads(path.read_text())))
        # 19 structure matrices, 3 Gram matrices and 4 family files
        assert len(found) == len(build_structures(2).names()) + 3 + 4
        for M in found:
            assert sorted(M) == ["cols", "entries", "rows", "var"]
            assert M["var"] == "u"
            assert len(M["entries"]) == M["rows"]
            assert all(len(row) == M["cols"] for row in M["entries"])

    def test_weight_samples(self, capsys):
        code, out, err = run(capsys, "weight", "--ell", "2",
                             "--sample", "0.0,0.5")
        doc = json.loads(out)
        assert [s["u"] for s in doc["samples"]] == [0.0, 0.5]
        w00 = doc["samples"][0]["W"][0][0]
        assert w00[1] == 0.0 and w00[0] > 0

    @pytest.mark.parametrize("ell", [6, 8])
    def test_weight_rounds_exact_values_once(self, capsys, ell):
        # each printed entry is the exact W(u), at the float u taken
        # exactly, rounded once and scaled by the float prefactor
        us = [-1.0, -0.7, 0.0, 0.123, 0.9, 1.0]
        code, out, err = run(capsys, "weight", "--ell", str(ell),
                             "--sample", ",".join(map(repr, us)))
        assert code == 0
        W = build_weight(ell)
        for u, sample in zip(us, json.loads(out)["samples"]):
            pref = (2.0 / math.pi) * math.sqrt(max(0.0, 1.0 - u * u))
            exact = [[complex(v) for v in row]
                     for row in W.evaluate_exact(Fraction(u))]
            assert sample["u"] == u
            assert sample["W"] == [[[pref * v.real, pref * v.imag]
                                    for v in row] for row in exact]

    def test_reduce_output(self, capsys):
        code, out, err = run(capsys, "reduce", "--ell", "2")
        doc = json.loads(out)
        assert doc["dimension"] == 2
        assert doc["block_sizes"] == [1, 2]
        # the commutant basis is the canonical nullspace basis: one vector
        # per free column, so the reduction is pinned entry by entry
        code, out, err = run(capsys, "reduce", "--ell", "4")
        doc = json.loads(out)
        eye = [["1" if i == j else "0" for j in range(5)] for i in range(5)]
        assert doc["basis"] == [eye[::-1], eye]
        assert doc["block_sizes"] == [2, 3]
        R = [[int(p[0]) if p else 0 for p in row]
             for row in doc["R"]["entries"]]
        assert R == [[0, -1, 0, 0, 1], [-1, 0, 0, 1, 0], [0, 0, 1, 0, 0],
                     [1, 0, 0, 1, 0], [0, 1, 0, 0, 1]]

    def test_reconstruct_meridian(self, capsys):
        code, out, err = run(capsys, "reconstruct", "--ell", "2", "--w", "1",
                             "--k", "1", "--theta", "0.0,0.8")
        doc = json.loads(out)
        first = np.array(doc["values"][0]["Phi"])
        # theta = 0 is the identity element
        assert np.max(np.abs(first[..., 0] - np.eye(3))) < 1e-9
        assert np.max(np.abs(first[..., 1])) < 1e-9

    @pytest.mark.parametrize("argv", [
        ("weight", "--ell", "2", "--sample", "-0.5,0.3"),
        ("reconstruct", "--ell", "2", "--w", "1", "--k", "1",
         "--theta", "-0.5,0.3"),
        ("reconstruct", "--ell", "2", "--w", "1", "--k", "1",
         "--theta", "-1e-3"),
    ])
    def test_negative_list_needs_no_equals(self, capsys, argv):
        # argparse alone reads these values as unknown options
        *head, option, value = argv
        attached = run(capsys, *head, f"{option}={value}")
        assert attached[0] == 0 and json.loads(attached[1])
        assert run(capsys, *argv) == attached

    def test_cover_valid_rotation(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(np.eye(4).tolist()))
        code, out, err = run(capsys, "cover", str(path))
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["a"], np.eye(3))
        assert np.allclose(doc["b"], np.eye(3))


class TestClosedPipe:
    def test_reader_closing_early_is_no_error(self):
        # unbuffered, each report line is its own write, so a write after
        # the reader has gone finds the pipe closed; the rows after the
        # first take hundreds of milliseconds, so some come after the close
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "sphmop.cli", "verify", "--ell", "6",
             "--wmax", "6"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True)
        assert proc.stdout.readline().startswith("PASS")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == ""


class TestImportBoundary:
    def test_exact_commands_load_no_numeric_stack(self):
        # a fresh interpreter, since this one has loaded numpy already
        script = (
            "import sys, sphmop.cli\n"
            "code = sphmop.cli.main(['verify', '--ell', '2', '--wmax', '1'])\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.partition('.')[0] in ('numpy', 'scipy'))\n"
            "print(code, loaded)\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 []"

    def test_numeric_commands_load_no_scipy(self, tmp_path):
        # reconstruct and cover need numpy alone
        path = tmp_path / "g.json"
        path.write_text(json.dumps(np.eye(4).tolist()))
        script = (
            "import sys, sphmop.cli\n"
            "codes = [sphmop.cli.main(['reconstruct', '--ell', '3', '--w',\n"
            "                          '1', '--k', '2', '--theta', '0.4']),\n"
            f"         sphmop.cli.main(['cover', {str(path)!r}])]\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.partition('.')[0] == 'scipy')\n"
            "print(codes, 'numpy' in sys.modules, loaded)\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[0, 0] True []"
