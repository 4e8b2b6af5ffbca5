import numpy as np
import pytest

from ridgeproj import (
    ConvergenceFailure,
    ProjectionConfig,
    exact_pcr,
    exact_projection,
    load_matrix,
    load_trace_csv,
    load_vector,
    matrix_stats,
    pc_proj,
    save_vector,
    svd_small,
)
from ridgeproj import cli, experiments


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def synth_files(tmp_path):
    prefix = str(tmp_path / "prob")
    code = run(["synth", "--n", "40", "--d", "24", "--rank", "6", "--gamma", "0.3",
                "--seed", "7", "--out-prefix", prefix])
    assert code == 0
    return prefix


class TestSynth:
    def test_writes_three_files(self, synth_files):
        A = load_matrix(synth_files + "_A.mtx")
        b = load_vector(synth_files + "_b.csv")
        x = load_vector(synth_files + "_xtrue.csv")
        assert A.shape == (40, 24)
        assert b.shape == (40,)
        assert x.shape == (24,)

    def test_byte_identical_reruns(self, tmp_path):
        pa = str(tmp_path / "a")
        pb = str(tmp_path / "b")
        for prefix in (pa, pb):
            assert run(["synth", "--n", "20", "--d", "12", "--rank", "4", "--gamma",
                        "0.2", "--seed", "5", "--out-prefix", prefix]) == 0
        for suffix in ("_A.mtx", "_b.csv", "_xtrue.csv"):
            with open(pa + suffix, "rb") as fa, open(pb + suffix, "rb") as fb:
                assert fa.read() == fb.read()


class TestProjectAndPcr:
    def test_project_matches_oracle(self, synth_files, tmp_path):
        out = str(tmp_path / "proj.csv")
        # gamma 0.3 data gap -> algorithm gap 0.3 / (4 * 1.3)
        code = run(["project", "--matrix", synth_files + "_A.mtx",
                    "--vector", synth_files + "_xtrue.csv",
                    "--lambda", "0.5", "--gamma", "0.0577", "--eps", "1e-3",
                    "--out", out])
        assert code == 0
        A = load_matrix(synth_files + "_A.mtx")
        y = load_vector(synth_files + "_xtrue.csv")
        got = load_vector(out)
        ref = exact_projection(svd_small(A), 0.5, y)
        assert np.linalg.norm(got - ref) <= 1e-3 * np.linalg.norm(y)

    def test_project_q_override_matches_library(self, synth_files, tmp_path):
        out, ref = str(tmp_path / "proj.csv"), str(tmp_path / "ref.csv")
        assert run(["project", "--matrix", synth_files + "_A.mtx",
                    "--vector", synth_files + "_xtrue.csv", "--lambda", "0.5",
                    "--gamma", "0.0577", "--eps", "1e-3", "--q", "3", "--out", out]) == 0
        A = load_matrix(synth_files + "_A.mtx")
        y = load_vector(synth_files + "_xtrue.csv")
        cfg = ProjectionConfig(lam=0.5, gamma=0.0577, eps=1e-3, q_override=3)
        save_vector(pc_proj(A, cfg, y, matrix_stats(A, 0.5)), ref)
        with open(out, "rb") as got, open(ref, "rb") as want:
            assert got.read() == want.read()

    def test_pcr_matches_oracle(self, synth_files, tmp_path):
        out = str(tmp_path / "pcr.csv")
        code = run(["pcr", "--matrix", synth_files + "_A.mtx",
                    "--rhs", synth_files + "_b.csv",
                    "--lambda", "0.5", "--gamma", "0.0577", "--eps", "1e-3",
                    "--out", out])
        assert code == 0
        A = load_matrix(synth_files + "_A.mtx")
        b = load_vector(synth_files + "_b.csv")
        got = load_vector(out)
        ref = exact_pcr(svd_small(A), 0.5, b)
        err = np.linalg.norm(A.matvec(got - ref))
        assert err <= 1e-3 * np.linalg.norm(b)


class TestConvergence:
    def test_trace_csv(self, synth_files, tmp_path):
        out = str(tmp_path / "trace.csv")
        code = run(["convergence", "--algo", "pcr", "--matrix", synth_files + "_A.mtx",
                    "--rhs", synth_files + "_b.csv", "--lambda", "0.5",
                    "--gamma", "0.0577", "--eps", "1e-3", "--max-iters", "8",
                    "--out", out])
        assert code == 0
        with open(out) as fh:
            assert fh.readline().strip() == "iteration,rel_error"
        trace = load_trace_csv(out)
        assert len(trace.records) == 9

    def test_deterministic_output(self, synth_files, tmp_path):
        outs = []
        for name in ("t1.csv", "t2.csv"):
            out = str(tmp_path / name)
            assert run(["convergence", "--algo", "project",
                        "--matrix", synth_files + "_A.mtx",
                        "--rhs", synth_files + "_b.csv", "--lambda", "0.5",
                        "--gamma", "0.0577", "--eps", "1e-2", "--max-iters", "12",
                        "--out", out]) == 0
            with open(out, "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_max_iters_below_one_refused_before_the_oracle(self, synth_files, tmp_path,
                                                           capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "svd_small", lambda *a: calls.append(1))
        out = tmp_path / "t.csv"
        assert run(["convergence", "--algo", "project", "--matrix", synth_files + "_A.mtx",
                    "--rhs", synth_files + "_b.csv", "--lambda", "0.5", "--gamma", "0.0577",
                    "--eps", "1e-2", "--max-iters", "0", "--out", str(out)]) == 1
        assert "max_q must be an integer of at least 1, got 0" in capsys.readouterr().err
        assert calls == [] and not out.exists()


class TestPoly:
    def test_pk_table(self, tmp_path):
        out = str(tmp_path / "pk.csv")
        assert run(["poly", "--kind", "pk", "--k", "9", "--grid", "11",
                    "--out", out]) == 0
        with open(out) as fh:
            header = fh.readline().strip()
            rows = [line.strip().split(",") for line in fh if line.strip()]
        assert header == "x,p_k,bound"
        assert len(rows) == 11
        from ridgeproj import p_k_eval
        x, pk = float(rows[8][0]), float(rows[8][1])
        assert pk == p_k_eval(x, 9)

    def test_bound_table(self, tmp_path):
        out = str(tmp_path / "bd.csv")
        assert run(["poly", "--kind", "bound", "--k", "4", "--grid", "7",
                    "--out", out]) == 0
        with open(out) as fh:
            assert fh.readline().strip() == "x,bound"

    def test_chebyshev_table(self, tmp_path):
        out = str(tmp_path / "ch.csv")
        assert run(["poly", "--kind", "chebyshev", "--alpha", "0.3", "--eps", "0.2",
                    "--grid", "21", "--out", out]) == 0
        with open(out) as fh:
            assert fh.readline().strip() == "x,q"

    def test_poly_missing_k_is_usage_error(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert run(["poly", "--kind", "pk", "--grid", "5", "--out", out]) == 1

    @pytest.mark.parametrize("grid", ["0", "-5"])
    @pytest.mark.parametrize("kind", [["pk", "--k", "3"], ["bound", "--k", "3"],
                                      ["chebyshev", "--alpha", "0.3", "--eps", "0.2"]])
    def test_grid_below_one_is_usage_error(self, tmp_path, capsys, kind, grid):
        out = tmp_path / "x.csv"
        assert run(["poly", "--kind", *kind, "--grid", grid, "--out", str(out)]) == 1
        assert "--grid" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_usage_errors_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["project", "--matrix", "a"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            run(["bogus-command"])
        assert exc.value.code == 1

    def test_missing_file_exit_1(self, tmp_path):
        assert run(["pcr", "--matrix", str(tmp_path / "no.mtx"),
                    "--rhs", str(tmp_path / "no.csv"), "--lambda", "0.5",
                    "--gamma", "0.1", "--eps", "1e-3",
                    "--out", str(tmp_path / "o.csv")]) == 1

    def test_non_ascii_matrix_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n"
                         b"2 2 1\n1 1 2.5\xc2\xb5\n")
        assert run(["project", "--matrix", str(path), "--vector", str(tmp_path / "y.csv"),
                    "--lambda", "0.5", "--gamma", "0.1", "--eps", "1e-3",
                    "--out", str(tmp_path / "o.csv")]) == 1
        assert f"{path}:3: non-ASCII byte 0xc2" in capsys.readouterr().err

    def test_nan_noise_exit_1(self, tmp_path, capsys):
        prefix = tmp_path / "p"
        assert run(["synth", "--n", "20", "--d", "12", "--rank", "4", "--gamma", "0.3",
                    "--seed", "0", "--noise", "nan", "--out-prefix", str(prefix)]) == 1
        assert "noise_scale" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, lam", [("project", "1e-200"), ("pcr", "1e-200"),
                                              ("project", "5e-324"), ("pcr", "5e-324")])
    def test_extreme_kappa_lambda_exit_1(self, synth_files, tmp_path, capsys, command, lam):
        # kappa_lambda past the ridge residual floor (1e-200) or past the
        # largest double (5e-324): a typed refusal, not a traceback.
        source = (["--vector", synth_files + "_xtrue.csv"] if command == "project"
                  else ["--rhs", synth_files + "_b.csv"])
        out = tmp_path / "o.csv"
        assert run([command, "--matrix", synth_files + "_A.mtx", *source, "--lambda", lam,
                    "--gamma", "0.1", "--eps", "1e-3", "--out", str(out)]) == 1
        assert "ridgeproj: error: kappa_lambda" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_exit_2(self, monkeypatch, tmp_path):
        def boom(args):
            raise ConvergenceFailure("forced", diagnostic=1.0)

        monkeypatch.setitem(cli._COMMANDS, "synth", boom)
        assert run(["synth", "--n", "4", "--d", "3", "--rank", "1", "--gamma", "0.1",
                    "--seed", "0", "--out-prefix", str(tmp_path / "p")]) == 2

    def test_version_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
