import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import brute_oracle
import tensor_ops
import qperm
from qperm import cli
from qperm import magic_bases as mb


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
        basis = mb.build_fourier_basis(5)
        data = tensor_ops.basis_to_dict(basis)
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
        {"xi": []},                                  # no n
        {"n": 3},                                    # no xi
    ])
    def test_verify_malformed_file(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run(["basis", "verify", str(path)]) == 2
        assert "error: cannot read basis" in capsys.readouterr().err

    def test_verify_non_finite_file(self, tmp_path, capsys):
        data = tensor_ops.basis_to_dict(mb.build_fourier_basis(5))
        data["xi"][1][2][0][0] = float("nan")        # json writes the NaN literal
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        assert run(["basis", "verify", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_verify_overflowing_file_fails_quietly(self, tmp_path):
        # finite coordinates whose products overflow: <xi_11, xi_11> = 1e400
        e1, e2 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
        xi = [[[[1e200, 0.0], [0.0, 0.0]], e2], [e2, e1]]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"n": 2, "xi": xi}))
        out, err, code = _fresh_process(["basis", "verify", str(path)], tmp_path)
        assert (code, err) == (1, "")
        assert "violation (1, 1) vs (1, 1)" in out
        residual = out.split("max residual ")[1].split(")")[0]
        assert not math.isfinite(float(residual))

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

    def test_classical_budget_exit(self, capsys):
        assert run(["orbitals", "--n", "40", "--m", "4", "--model", "classical"]) == 3
        assert run(["orbitals", "--n", "5", "--m", "3", "--model", "classical",
                    "--budget", "1000"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_classical_without_dimension_cap(self, capsys):
        assert run(["orbitals", "--n", "9", "--m", "2", "--model", "classical"]) == 0
        assert "classical model n=9 m=2: pass (6561 words)" in capsys.readouterr().out

    def test_classical_long_words_at_n1(self, capsys):
        # the verdict is structural: no array with an axis per factor
        assert run(["orbitals", "--n", "1", "--m", "66", "--model", "classical"]) == 0
        assert "classical model n=1 m=66: pass (1 words)" in capsys.readouterr().out

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

    def test_blank_word(self, capsys):
        # a blank word parses to the empty word, which has no class; argv is
        # built by hand since the contract table splits its rows on spaces
        assert run(["haar", "--n", "5", "--mono", " "]) == 2
        assert capsys.readouterr().err == "error: the identity word has no class tag\n"

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

    @staticmethod
    def _refused_before_the_probe(tmp_path, capsys, monkeypatch, flag, path):
        # nothing computed, nothing on stdout, nothing written, exit 2 from main
        from qperm import convolution_probe as cp
        calls = []
        monkeypatch.setattr(cp, "inner_faithfulness_report",
                            lambda *a, **kw: calls.append(a))
        before = sorted(tmp_path.rglob("*"))
        assert run(["probe", "--n", "4", "--max-degree", "1", flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and str(path) in captured.err
        assert captured.out == ""
        assert not calls
        assert sorted(tmp_path.rglob("*")) == before

    def test_csv_into_missing_directory(self, tmp_path, capsys, monkeypatch):
        self._refused_before_the_probe(tmp_path, capsys, monkeypatch, "--csv",
                                       tmp_path / "missing" / "m.out")

    def test_out_into_missing_directory(self, tmp_path, capsys, monkeypatch):
        self._refused_before_the_probe(tmp_path, capsys, monkeypatch, "--out",
                                       tmp_path / "missing" / "m.out")

    def test_csv_into_a_directory(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "d").mkdir()
        self._refused_before_the_probe(tmp_path, capsys, monkeypatch, "--csv", tmp_path / "d")

    def test_out_into_a_directory(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "d").mkdir()
        self._refused_before_the_probe(tmp_path, capsys, monkeypatch, "--out", tmp_path / "d")

    def test_spectral_fields(self, capsys):
        assert run(["probe", "--n", "4", "--max-degree", "4"]) == 0
        degrees = json.loads(capsys.readouterr().out.splitlines()[0])["degrees"]
        assert [d["fixed_space_dim"] for d in degrees] == [1, 2, 5, 14]
        assert abs(degrees[3]["spectral_gap"] - 8 / 27) < 1e-9
        assert all(d["converged"] for d in degrees)
        # the 4x4 grid's Gram table is not shift-invariant, but XOR-invariant
        # up to a sign gauge: blocks of side 4^(m-1)
        assert degrees[3]["reduction"] == "xor"
        assert degrees[3]["block_size"] == 64

    def test_4x4_frontier_on_xor_blocks(self, capsys):
        # degree 7 solves blocks of side 4096 in place of 16384: Catalan to C_7
        assert run(["probe", "--n", "4", "--max-degree", "7"]) == 0
        out = capsys.readouterr().out.splitlines()
        degrees = json.loads(out[0])["degrees"]
        assert [d["reduction"] for d in degrees] == ["xor"] * 7
        assert [d["fixed_space_dim"] for d in degrees] == [1, 2, 5, 14, 42, 132, 429]
        assert degrees[-1]["block_size"] == 4096
        assert all(d["converged"] for d in degrees)
        assert out[1].startswith("verdict: consistent with inner faithfulness up to degree 7")

    def test_n8_degree4_on_shift_blocks(self, capsys):
        # a structural guard: the full path would solve a 4096 x 4096 matrix;
        # the orbit path solves the 301 all-perp labels, in 4 orbits
        assert run(["probe", "--n", "8", "--max-degree", "4"]) == 0
        degrees = json.loads(capsys.readouterr().out.splitlines()[0])["degrees"]
        assert [d["fixed_space_dim"] for d in degrees] == [1, 2, 5, 15]
        assert [d["reduction"] for d in degrees] == ["orbits"] * 4
        assert degrees[3]["block_size"] == 512
        assert degrees[3]["sectors"] == [301, 4]
        assert all(d["converged"] for d in degrees)

    @pytest.mark.parametrize("n,max_degree,fixed", [(5, 10, 86472), (6, 8, 4111)])
    def test_orbit_path_frontier(self, capsys, n, max_degree, fixed):
        # the S_n counts: set partitions of m points into at most n blocks
        assert run(["probe", "--n", str(n), "--max-degree", str(max_degree)]) == 0
        degrees = json.loads(capsys.readouterr().out.splitlines()[0])["degrees"]
        assert degrees[-1]["fixed_space_dim"] == fixed
        assert degrees[-1]["fix_moment_estimate"] == float(fixed)
        assert [d["reduction"] for d in degrees] == ["orbits"] * max_degree

    def test_n5_degree5(self, capsys):
        assert run(["probe", "--n", "5", "--max-degree", "5"]) == 0
        degrees = json.loads(capsys.readouterr().out.splitlines()[0])["degrees"]
        assert [d["fixed_space_dim"] for d in degrees] == [1, 2, 5, 15, 52]
        assert degrees[4]["block_size"] == 625

    def test_large_fourier_grid_keeps_the_sector_path(self, capsys):
        # the default probe at n = 21: the orbit path's working set, 2.2e9
        # bytes, exceeds the cap, and its largest orbit, 20 19 18 = 6840
        # labels, is 2.9 times the sector side R = 2321; the sector path
        # answers as before the orbit path existed
        assert run(["probe", "--n", "21"]) == 0
        out = capsys.readouterr().out.splitlines()
        degrees = json.loads(out[0])["degrees"]
        assert [d["reduction"] for d in degrees] == ["shift"] * 4
        assert [d["fixed_space_dim"] for d in degrees] == [1, 2, 5, 15]
        assert [d["sectors"] for d in degrees][3] == [2321, 2310, 2320, 2310]
        assert abs(degrees[3]["spectral_gap"] - 0.00846232270739955) < 1e-13
        assert out[1] == ("verdict: deviates at degree 4 by 1 "
                          "(fix-moment estimate vs Catalan target)")

    def test_orbit_path_over_the_cap_falls_back(self, capsys):
        # n = 8, degree 4 under a 10^7-byte cap: the orbit path needs 16.9 MB,
        # the sector path 7.9 MB
        argv = ["probe", "--n", "8", "--max-degree", "4"]
        assert run(argv) == 0
        orbits = json.loads(capsys.readouterr().out.splitlines()[0])["degrees"]
        assert run(argv + ["--memory-cap", "10000000"]) == 0
        sectors = json.loads(capsys.readouterr().out.splitlines()[0])["degrees"]
        assert [d["reduction"] for d in orbits] == ["orbits"] * 4
        assert [d["reduction"] for d in sectors] == ["shift"] * 4
        assert [d["fixed_space_dim"] for d in sectors] == [1, 2, 5, 15]
        for o, s in zip(orbits, sectors):
            assert abs(o["spectral_gap"] - s["spectral_gap"]) < 1e-12

    def test_memory_cap_exit(self, capsys):
        # beyond the default cap on each path: the 4x4 grid's XOR blocks of
        # side 4^8 at degree 9 (degree 8 is admitted, at 1.2e9 bytes), and the
        # label permutations of the orbit path, 8 (n + 10) (n-1)^(m-1) bytes:
        # 2.0e9 at n = 5, m = 13 (admitted), 8.1e9 at m = 14
        assert run(["probe", "--n", "4", "--max-degree", "9"]) == 3
        assert "sector blocks and rows > cap" in capsys.readouterr().err
        assert run(["probe", "--n", "5", "--max-degree", "14"]) == 3
        assert "label permutations and orbits > cap" in capsys.readouterr().err

    def test_refused_before_the_grid_is_built(self, capsys, monkeypatch):
        # the root-of-unity grid's need reads n and the degree alone: at
        # n = 60 both paths need more than the default cap at degree 4
        monkeypatch.setattr(cli, "_model", lambda n: pytest.fail("built the grid"))
        assert run(["probe", "--n", "60"]) == 3
        assert "bytes for its sector blocks and rows > cap" in capsys.readouterr().err
        monkeypatch.undo()
        assert run(["probe", "--n", "60"]) == 3
        assert cli._model.cache_info().currsize == 0

    def test_verbose_prints_one_line_per_degree(self, capsys):
        assert run(["probe", "--n", "5", "--max-degree", "3"]) == 0
        plain = capsys.readouterr()
        assert run(["probe", "--n", "5", "--max-degree", "3", "--verbose"]) == 0
        verbose = capsys.readouterr()
        assert (verbose.out, plain.err) == (plain.out, "")
        lines = verbose.err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["degree 1", "degree 2", "degree 3"]
        assert lines[2].startswith("degree 3: orbits, side 25, 12 labels, 1 orbits, "
                                   "ghat residual ")
        assert lines[2].endswith(" s, fixed 5, gap 0.552786")
        assert run(["probe", "--n", "4", "--max-degree", "3", "--verbose"]) == 0
        line = capsys.readouterr().err.splitlines()[2]
        assert line.startswith("degree 3: xor, side 16, 6 reps, sectors [6, 5, 5], ")
        assert line.endswith(" s, fixed 5, gap 0.666667")

    def test_verdict_printed(self, capsys):
        assert run(["probe", "--n", "5", "--max-degree", "4"]) == 0
        out = capsys.readouterr().out
        assert "verdict: deviates at degree 4" in out


class TestModelCache:
    """``probe`` and ``orbitals`` share one flat model per n and process."""

    @staticmethod
    def _count_magic_checks(monkeypatch):
        calls = []
        check = mb.verify_magic
        monkeypatch.setattr(mb, "verify_magic",
                            lambda basis: calls.append(basis.n) or check(basis))
        return calls

    def test_magic_check_runs_once_per_n(self, monkeypatch, capsys):
        calls = self._count_magic_checks(monkeypatch)
        assert run(["probe", "--n", "5", "--max-degree", "3"]) == 0
        assert run(["probe", "--n", "5", "--max-degree", "3"]) == 0
        assert run(["orbitals", "--n", "5", "--m", "3"]) == 0
        assert calls == [5]
        assert run(["orbitals", "--n", "6", "--m", "2"]) == 0
        assert calls == [5, 6]

    def test_label_symmetry_is_decided_once_per_n(self, monkeypatch, capsys):
        calls, gate = [], cli.flat_model.label_orbits.label_symmetry
        monkeypatch.setattr(cli.flat_model.label_orbits, "label_symmetry",
                            lambda gram: calls.append(len(gram)) or gate(gram))
        for n in (4, 4, 5, 4, 5):
            assert run(["probe", "--n", str(n), "--max-degree", "2"]) == 0
        assert calls == [4, 5]

    def test_a_given_grid_is_checked_on_every_call(self, monkeypatch):
        calls = self._count_magic_checks(monkeypatch)
        basis = mb.build_fourier_basis(5)
        cli.flat_model.model_from_basis(basis)
        cli.flat_model.model_from_basis(basis)
        assert calls == [5, 5]

    @pytest.mark.parametrize("n", [4, 5])
    def test_cached_arrays_are_read_only(self, n):
        model = cli._model(n)
        with pytest.raises(ValueError):
            model.gram[0, 0, 0, 0] = 0
        with pytest.raises(ValueError):
            model.basis.xi[0, 0, 0] = 0
        assert cli._model(n) is model

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_repeated_runs_match_the_cold_run(self, tmp_path, capsys, n):
        out, csv = tmp_path / "r.json", tmp_path / "m.csv"
        commands = (["probe", "--n", str(n), "--max-degree", "4"],
                    ["probe", "--n", str(n), "--max-degree", "3",
                     "--out", str(out), "--csv", str(csv)],
                    ["orbitals", "--n", str(n), "--m", "3"],
                    ["orbitals", "--n", str(n), "--m", "2", "--json"])

        def outputs():
            seen = []
            for argv in commands:
                code = run(argv)
                seen.append((code, capsys.readouterr()))
            return seen, out.read_bytes(), csv.read_bytes()

        assert cli._model.cache_info().currsize == 0
        cold = outputs()
        assert cli._model.cache_info().misses == 1
        assert outputs() == cold
        assert cli._model.cache_info().misses == 1

    def test_cache_is_bounded(self):
        sweep = range(4, 4 + cli.MODEL_CACHE_SIZE + 3)
        for n in sweep:
            cli._model(n)
            assert cli._model.cache_info().currsize <= cli.MODEL_CACHE_SIZE
        assert cli._model.cache_info().currsize == cli.MODEL_CACHE_SIZE
        cli._model(sweep[-1])
        assert cli._model.cache_info().hits == 1

    @pytest.mark.parametrize("argv", [
        "probe --n 5 --max-degree 0", "probe --n 5 --tol 2", "probe --n 5 --memory-cap 0",
        "orbitals --n 5 --m 0", "orbitals --n 5 --m 3 --budget 0",
        "orbitals --n 5 --m 3 --budget 10",
    ])
    def test_refused_options_build_no_model(self, capsys, argv):
        assert run(argv.split()) in (2, 3)
        assert "error:" in capsys.readouterr().err
        assert cli._model.cache_info().misses == 0


# Bad inputs of every subcommand, with the exit code and a stderr fragment:
# 2 for input errors, 3 for resource limits, a refused allocation included.
# ``{tmp}/missing`` is a directory that does not exist.  The test classes
# above hold more cases.
EXIT_CODE_CASES = [
    ("basis gen --n 5 --out {tmp}/missing/b.json", 2, "error:"),
    ("basis verify {tmp}/missing/b.json", 2, "error: cannot read basis"),
    ("basis verify --tol 1e-6 {tmp}/b.json", 2, "unrecognized arguments: --tol"),
    ("orbitals --n 5 --m 0", 2, "error: m must be >= 1"),
    ("orbitals --n 3 --m 2", 2, "error: the root-of-unity grid needs n >= 5"),
    ("orbitals --n 5 --m 3 --budget 10", 3, "budget"),
    ("orbitals --n 5 --m 3 --budget -5", 2, "error: budget must be >= 1"),
    ("orbitals --n 5 --m 3 --model classical --budget 0", 2, "error: budget must be >= 1"),
    ("orbitals --n 5 --m 0 --budget -5", 2, "error: m must be >= 1"),
    ("haar --n 3 --mono 1:1,2:2,3:3,1:1,2:2,3:3", 2, "error: reduced degree 6 > 4"),
    ("haar --n 5 --mono 0:1", 2, "error: pair (0, 1) outside 1..5"),
    ("haar --n 5", 2, "error: provide --mono or the 'table' mode"),
    ("haar table --n 4", 2, "error: the class table needs --n >= 5"),
    ("haar table --n 5 --mono 1:1", 2, "error: --mono does not apply to the 'table' mode"),
    ("probe --n 3", 2, "error: the root-of-unity grid needs n >= 5"),
    ("probe --n 5 --tol 1.5", 2, "error: tol_converge must lie in (0, 1)"),
    ("probe --n 4 --max-degree 2 --memory-cap 1000", 3, "error: degree 2 needs about"),
    ("probe --n 5 --memory-cap 0", 2, "error: memory_cap must be >= 1"),
    ("probe --n 6 --memory-cap 1000", 3, "bytes for its sector blocks and rows > cap 1000"),
    ("probe --n 5 --max-degree 9 --memory-cap 1000", 3,
     "bytes for its label permutations and orbits > cap 1000"),
    ("probe --n 4 --tol 3.0814879110195774e-33", 2, "error: tol_converge must exceed 2^-108"),
    ("probe --n 4 --max-degree 1 --out {tmp}/missing/r.json", 2, "error:"),
    ("basis gen --n 2000 --out {tmp}/b.json", 3, "error: out of memory"),
    ("orbitals --n 2000 --m 1", 3, "error: out of memory"),
    ("probe --n 2000 --max-degree 1", 3, "error: out of memory"),
    # options are refused before the grid is built, so never as out of memory
    ("probe --n 2000 --max-degree 0", 2, "error: max_degree must be >= 1"),
    ("probe --n 2000 --tol 2", 2, "error: tol_converge must lie in (0, 1)"),
    ("probe --n 2000 --memory-cap 0", 2, "error: memory_cap must be >= 1"),
    ("orbitals --n 2000 --m 0", 2, "error: m must be >= 1"),
    ("orbitals --n 2000 --m 3 --budget 0", 2, "error: budget must be >= 1"),
    ("orbitals --n 2000 --m 3", 3, "error: scan touches"),
]
# From this n on the grid builder raises MemoryError, as numpy does when the
# host refuses an allocation; the table's rows allocate nothing.
HOST_REFUSES_N = 2000


@pytest.mark.parametrize("argv,code,fragment", EXIT_CODE_CASES)
def test_exit_code_contract(tmp_path, capsys, monkeypatch, argv, code, fragment):
    build = mb.build_fourier_basis

    def refusing_build(n):
        if n >= HOST_REFUSES_N:
            raise MemoryError
        return build(n)

    monkeypatch.setattr(mb, "build_fourier_basis", refusing_build)
    try:
        got = run(argv.format(tmp=tmp_path).split())
    except SystemExit as exc:                    # argparse rejects the usage
        got = exc.code
    assert got == code
    assert fragment in capsys.readouterr().err


# S_n^+ = S_n for n <= 3, so haar answers there with the classical value
@pytest.mark.parametrize("argv", ["haar --n 3 --mono 1:1", "haar --n 1 --mono 1:1",
                                  "haar --n 3 --mono 1:1,2:2",
                                  "haar --n 3 --mono 1:2,2:1,1:2,3:3",
                                  "haar --n 2 --mono 1:1,2:2,1:1,2:2",
                                  "haar --n 3 --mono 1:1,1:2"])
def test_haar_below_four_is_classical(capsys, argv):
    assert run(argv.split()) == 0
    value = capsys.readouterr().out.splitlines()[0].partition(" = ")[2]
    n, mono = int(argv.split()[2]), argv.split()[4]
    word = tuple(tuple(int(x) for x in pair.split(":")) for pair in mono.split(","))
    assert Fraction(value) == brute_oracle.brute_force_classical_haar(n, word)


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


# each command runs after the one before it in the same process; no flag of
# an earlier command may reach a later one
_REUSE_SEQUENCE = (
    ("orbitals", "--n", "4", "--m", "2", "--json"),
    ("orbitals", "--n", "4", "--m", "2"),
    ("probe", "--n", "5", "--max-degree", "3", "--csv", "CSV"),
    ("probe", "--n", "5", "--max-degree", "3"),
    ("orbitals", "--n", "4", "--m", "2", "--model", "classical"),
    ("orbitals", "--n", "4", "--m", "2"),
)


def _fresh_process(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(qperm.__file__)),
                      env.get("PYTHONPATH")]))
    script = "import sys; from qperm.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, env=env,
                          timeout=120, capture_output=True, text=True)
    return done.stdout, done.stderr, done.returncode


def test_parser_is_reused_without_carry_over(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    csv = tmp_path / "moments.csv"
    for argv in _REUSE_SEQUENCE:
        argv = [str(csv) if arg == "CSV" else arg for arg in argv]
        fresh = _fresh_process(argv, tmp_path)
        fresh_csv = csv.read_text() if csv.exists() else None
        csv.unlink(missing_ok=True)
        code = run(argv)
        out, err = capsys.readouterr()
        assert (out, err, code) == fresh, argv
        assert (csv.read_text() if csv.exists() else None) == fresh_csv, argv
        csv.unlink(missing_ok=True)
