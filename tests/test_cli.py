import json
import os
import subprocess
import sys
import textwrap

import pytest

import qperm
from qperm import cli


def run(argv):
    return cli.main(argv)


class TestBasisCommands:
    def test_gen_then_verify(self, tmp_path, capsys):
        path = str(tmp_path / "b5.json")
        assert run(["basis", "gen", "--n", "5", "--out", path]) == 0
        assert run(["basis", "verify", path]) == 0
        out = capsys.readouterr().out
        assert "magic: ok" in out
        assert "suitably-noncommutative: ok" in out

    def test_gen_pauli_for_n4(self, tmp_path):
        path = str(tmp_path / "b4.json")
        assert run(["basis", "gen", "--n", "4", "--out", path]) == 0
        assert run(["basis", "verify", path]) == 0

    def test_gen_rejects_n_below_4(self, tmp_path):
        path = str(tmp_path / "b3.json")
        assert run(["basis", "gen", "--n", "3", "--out", path]) == 2

    def test_verify_non_magic_file_fails(self, tmp_path, capsys):
        from qperm import magic_bases as mb
        basis = mb.build_fourier_basis(5)
        data = mb.basis_to_dict(basis)
        data["xi"][0][0] = data["xi"][0][1]          # duplicate a vector
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert run(["basis", "verify", str(path)]) == 1
        assert "violation" in capsys.readouterr().out

    def test_verify_unreadable_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert run(["basis", "verify", str(path)]) == 2

    @pytest.mark.parametrize("data", [
        {"n": 3, "xi": [[0.5, 0.5, 0.5]] * 3},       # numbers where [re, im] pairs belong
        {"n": 0, "xi": []},
        {"n": 2, "xi": [[[[1, 0], [0, "x"]]] * 2] * 2},
        [1, 2, 3],
    ])
    def test_verify_malformed_file(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run(["basis", "verify", str(path)]) == 2
        assert "error: cannot read basis" in capsys.readouterr().err

    def test_round_trip_bit_for_bit(self, tmp_path):
        path = tmp_path / "b6.json"
        assert run(["basis", "gen", "--n", "6", "--out", str(path)]) == 0
        raw = json.loads(path.read_text())
        assert json.dumps(raw) == json.dumps(json.loads(json.dumps(raw)))


class TestOrbitalsCommand:
    def test_flat_pass(self, capsys):
        assert run(["orbitals", "--n", "4", "--m", "3"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_classical_fails_at_three(self, capsys):
        assert run(["orbitals", "--n", "4", "--m", "3", "--model", "classical"]) == 1
        assert "violation" in capsys.readouterr().out

    def test_budget_exit(self):
        assert run(["orbitals", "--n", "6", "--m", "6"]) == 3

    def test_json_output(self, capsys):
        assert run(["orbitals", "--n", "5", "--m", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pass"] is True
        assert "tol_zero" in data


class TestHaarCommand:
    def test_word_value(self, capsys):
        assert run(["haar", "--n", "5", "--mono", "1:1,2:2,1:1,2:2"]) == 0
        out = capsys.readouterr().out
        assert "A1 = 1/44" in out
        assert "exotic-bound interval" in out

    def test_table(self, capsys):
        assert run(["haar", "table", "--n", "6"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["classes"]) == {"a1", "a2", "a3", "a4", "a5", "a6", "a7"}

    def test_parse_failure(self):
        assert run(["haar", "--n", "5", "--mono", "nonsense"]) == 2

    def test_degree_cap(self):
        assert run(["haar", "--n", "5",
                    "--mono", "1:1,2:2,3:3,4:4,5:5"]) == 2

    def test_n4_diagnostic(self, capsys):
        assert run(["haar", "--n", "4", "--mono", "1:1,2:2,1:1,2:2"]) == 0
        out = capsys.readouterr().out
        assert "boundary diagnostic" in out
        assert "1/20" in out
        assert "1/81" in out


class TestProbeCommand:
    def test_report_written(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        code = run(["probe", "--n", "4", "--max-degree", "2",
                    "--out", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        assert data["n"] == 4
        assert [d["m"] for d in data["degrees"]] == [1, 2]
        assert all(d["converged"] for d in data["degrees"])
        # round trip of parsed content is stable
        assert json.dumps(json.loads(json.dumps(data))) == json.dumps(data)

    def test_csv_output(self, tmp_path):
        csv_path = tmp_path / "m.csv"
        out_path = tmp_path / "r.json"
        assert run(["probe", "--n", "4", "--max-degree", "1",
                    "--out", str(out_path), "--csv", str(csv_path)]) == 0
        assert csv_path.read_text().startswith("m,estimate")

    def test_csv_into_missing_directory(self, tmp_path, capsys):
        csv_path = tmp_path / "missing" / "m.csv"
        assert run(["probe", "--n", "4", "--max-degree", "1",
                    "--csv", str(csv_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_spectral_fields(self, capsys):
        assert run(["probe", "--n", "4", "--max-degree", "4"]) == 0
        degrees = json.loads(capsys.readouterr().out.splitlines()[0])["degrees"]
        assert [d["fixed_space_dim"] for d in degrees] == [1, 2, 5, 14]
        assert abs(degrees[3]["spectral_gap"] - 8 / 27) < 1e-9
        assert all(d["converged"] for d in degrees)

    def test_memory_cap_exit(self):
        assert run(["probe", "--n", "5", "--max-degree", "6"]) == 3

    def test_verdict_printed(self, capsys):
        assert run(["probe", "--n", "5", "--max-degree", "4"]) == 0
        out = capsys.readouterr().out
        assert "verdict: deviates at degree 4" in out


def test_unknown_command_is_argparse_error():
    with pytest.raises(SystemExit):
        run(["frobnicate"])


def test_qpg_threads_caps_blas():
    # numpy's bundled OpenBLAS reads its thread count once, when it loads;
    # the cap only works if importing qperm sets it first
    script = textwrap.dedent("""
        import ctypes, glob, os
        import qperm
        import numpy
        libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas64_*.so"))
        if libs:
            get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            get.argtypes = []
            get.restype = ctypes.c_int
            print(get())
        else:
            print(os.environ["OPENBLAS_NUM_THREADS"])
    """)
    env = {key: value for key, value in os.environ.items()
           if not key.endswith("_NUM_THREADS")}
    env["QPG_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(qperm.__file__)),
                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "1"
