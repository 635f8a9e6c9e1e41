import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moikit
from moikit.cli import main
from moikit.spectral import load_matrix, matrix_to_dict


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def square_fn(tmp_path):
    return write_json(tmp_path / "square.json",
                      {"kind": "polynomial", "coeffs": [[0, 0], [0, 0], [1, 0]]})


@pytest.fixture
def cos_fn(tmp_path):
    return write_json(tmp_path / "cos.json",
                      {"kind": "wiener", "atoms": [[1.0, 0.5, 0.0], [-1.0, 0.5, 0.0]]})


def matrix_file(tmp_path, name, A):
    return write_json(tmp_path / name, matrix_to_dict(np.asarray(A, dtype=complex)))


class TestEval:
    def test_square_of_diagonal(self, tmp_path, square_fn):
        mat = matrix_file(tmp_path, "a.json", np.diag([1.0, 2.0]))
        out = tmp_path / "out.json"
        assert main(["eval", "--function", square_fn, "--matrix", mat,
                     "--out", str(out)]) == 0
        np.testing.assert_allclose(load_matrix(out), np.diag([1.0, 4.0]), atol=1e-12)
        report = json.loads((tmp_path / "out.json.report.json").read_text())
        assert report["overall_pass"] is True

    def test_cos_of_diagonal(self, tmp_path, cos_fn):
        mat = matrix_file(tmp_path, "a.json", np.diag([0.0, np.pi]))
        out = tmp_path / "out.json"
        assert main(["eval", "--function", cos_fn, "--matrix", mat,
                     "--out", str(out)]) == 0
        np.testing.assert_allclose(load_matrix(out), np.diag([1.0, -1.0]), atol=1e-12)

    def test_constant_function_gives_identity(self, tmp_path):
        fn = write_json(tmp_path / "one.json",
                        {"kind": "polynomial", "coeffs": [[1, 0]]})
        mat = matrix_file(tmp_path, "a.json", np.diag([3.0, -2.0]))
        out = tmp_path / "out.json"
        assert main(["eval", "--function", fn, "--matrix", mat,
                     "--out", str(out)]) == 0
        np.testing.assert_allclose(load_matrix(out), np.eye(2), atol=1e-14)

    def test_non_hermitian_exits_2(self, tmp_path, square_fn):
        mat = matrix_file(tmp_path, "bad.json", [[0.0, 1.0], [0.0, 0.0]])
        assert main(["eval", "--function", square_fn, "--matrix", mat]) == 2

    def test_eigensolver_failure_exits_2(self, tmp_path, square_fn, monkeypatch):
        def no_convergence(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        mat = matrix_file(tmp_path, "a.json", np.diag([1.0, 2.0]))
        assert main(["eval", "--function", square_fn, "--matrix", mat]) == 2

    def test_unparsable_matrix_exits_3(self, tmp_path, square_fn):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["eval", "--function", square_fn, "--matrix", str(bad)]) == 3

    def test_missing_file_exits_3(self, tmp_path, square_fn):
        assert main(["eval", "--function", square_fn,
                     "--matrix", str(tmp_path / "absent.json")]) == 3


class TestDerivative:
    def test_square_first_derivative(self, tmp_path, square_fn):
        rng = np.random.default_rng(0)
        A = np.diag([1.0, 2.0, 3.0])
        B = rng.standard_normal((3, 3))
        B = 0.5 * (B + B.T)
        a = matrix_file(tmp_path, "a.json", A)
        b = matrix_file(tmp_path, "b.json", B)
        out = tmp_path / "d.json"
        assert main(["derivative", "--function", square_fn, "--matrix", a,
                     "--matrix", b, "--order", "1", "--out", str(out)]) == 0
        np.testing.assert_allclose(load_matrix(out), A @ B + B @ A, atol=1e-10)

    def test_order_above_degree_gives_zero(self, tmp_path, square_fn):
        A = np.diag([1.0, 2.0])
        paths = [matrix_file(tmp_path, f"m{i}.json", A) for i in range(4)]
        out = tmp_path / "d.json"
        args = ["derivative", "--function", square_fn, "--order", "3",
                "--out", str(out)]
        for p in paths:
            args += ["--matrix", p]
        assert main(args) == 0
        np.testing.assert_allclose(load_matrix(out), np.zeros((2, 2)), atol=1e-12)

    def test_order_above_degree_passes_oracle_check(self, tmp_path, square_fn):
        # exact derivative is the zero matrix; the stencil returns only its
        # noise floor and the scaled residual must still pass
        A = np.diag([1.0, 2.0])
        paths = [matrix_file(tmp_path, f"m{i}.json", A) for i in range(4)]
        out = tmp_path / "d.json"
        args = ["derivative", "--function", square_fn, "--order", "3",
                "--check", "--out", str(out)]
        for p in paths:
            args += ["--matrix", p]
        assert main(args) == 0
        report = json.loads((tmp_path / "d.json.report.json").read_text())
        assert report["checks"][0]["passed"] is True

    def test_check_flag_runs_oracle(self, tmp_path, cos_fn):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 3))
        A = 0.25 * (A + A.T)
        B = rng.standard_normal((3, 3))
        B = 0.25 * (B + B.T)
        a = matrix_file(tmp_path, "a.json", A)
        b = matrix_file(tmp_path, "b.json", B)
        out = tmp_path / "d.json"
        assert main(["derivative", "--function", cos_fn, "--matrix", a,
                     "--matrix", b, "--order", "1", "--check",
                     "--out", str(out)]) == 0
        report = json.loads((tmp_path / "d.json.report.json").read_text())
        assert report["checks"][0]["passed"] is True

    def test_wrong_matrix_count_is_precondition_failure(self, tmp_path, square_fn):
        a = matrix_file(tmp_path, "a.json", np.eye(2))
        assert main(["derivative", "--function", square_fn, "--matrix", a,
                     "--order", "2"]) == 2

    def test_order_below_one_rejected(self, tmp_path, square_fn):
        a = matrix_file(tmp_path, "a.json", np.eye(2))
        assert main(["derivative", "--function", square_fn, "--matrix", a,
                     "--matrix", a, "--order", "0"]) == 3

    def test_cos_second_order_against_shipped_fixture(self, tmp_path):
        # fixture generated once by the extended-precision stencil oracle
        import pathlib
        fix = pathlib.Path(__file__).parent / "fixtures"
        out = tmp_path / "d.json"
        assert main(["derivative", "--function", str(fix / "cos_fn.json"),
                     "--matrix", str(fix / "cos_k2_base.json"),
                     "--matrix", str(fix / "cos_k2_dir1.json"),
                     "--matrix", str(fix / "cos_k2_dir2.json"),
                     "--order", "2", "--out", str(out)]) == 0
        expected = load_matrix(fix / "cos_k2_expected.json")
        value = load_matrix(out)
        rel = np.linalg.norm(value - expected) / (1 + np.linalg.norm(expected))
        assert rel < 1e-4


class TestRemainder:
    def test_square_second_order_is_b_squared(self, tmp_path, square_fn):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        A = 0.5 * (A + A.T)
        B = rng.standard_normal((3, 3))
        B = 0.5 * (B + B.T)
        a = matrix_file(tmp_path, "a.json", A)
        b = matrix_file(tmp_path, "b.json", B)
        out = tmp_path / "r.json"
        assert main(["remainder", "--function", square_fn, "--matrix", a,
                     "--matrix", b, "--order", "2", "--out", str(out)]) == 0
        np.testing.assert_allclose(load_matrix(out), B @ B, atol=1e-10)

    def test_zero_perturbation(self, tmp_path, cos_fn):
        A = np.diag([0.3, 1.2, -0.4])
        a = matrix_file(tmp_path, "a.json", A)
        z = matrix_file(tmp_path, "z.json", np.zeros((3, 3)))
        out = tmp_path / "r.json"
        assert main(["remainder", "--function", cos_fn, "--matrix", a,
                     "--matrix", z, "--order", "1", "--out", str(out)]) == 0
        np.testing.assert_allclose(load_matrix(out), np.zeros((3, 3)), atol=1e-13)
        report = json.loads((tmp_path / "r.json.report.json").read_text())
        assert report["overall_pass"] is True

    def test_cos_first_order_records_bound_slack(self, tmp_path, cos_fn):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3))
        A = 0.4 * (A + A.T)
        B = rng.standard_normal((3, 3))
        B = 0.3 * (B + B.T)
        a = matrix_file(tmp_path, "a.json", A)
        b = matrix_file(tmp_path, "b.json", B)
        out = tmp_path / "r.json"
        assert main(["remainder", "--function", cos_fn, "--matrix", a,
                     "--matrix", b, "--order", "1", "--out", str(out)]) == 0
        report = json.loads((tmp_path / "r.json.report.json").read_text())
        bound_rows = [c for c in report["checks"] if "remainder bound" in c["name"]]
        assert bound_rows and bound_rows[0]["passed"]
        assert bound_rows[0]["lhs"] < bound_rows[0]["rhs"]  # recorded slack


class TestVerify:
    def test_filtered_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--seed", "7", "--filter", "truncation",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["overall_pass"] is True
        assert "timings_seconds" in report

    def test_absurd_tolerance_fails_with_exit_1(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--seed", "7", "--filter", "quadrature",
                     "--tolerance", "quadrature_agreement=1e-20",
                     "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["overall_pass"] is False
        residuals = [c["residual"] for c in report["checks"] if not c["passed"]]
        assert residuals

    def test_unknown_tolerance_exits_3(self):
        assert main(["verify", "--tolerance", "nonsense=1"]) == 3

    def test_filter_matching_no_suite_exits_3(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--seed", "1", "--filter", "nosuchsuite",
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_config_file(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = write_json(tmp_path / "cfg.json",
                         {"seed": 3, "filter": "truncation", "out": str(out)})
        assert main(["verify", "--config", cfg]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 3


class TestBodiesAcrossBlasThreads:
    # the divided-difference and quadrature suites sum over simplex rules;
    # a threaded BLAS would split those sums by its thread count
    SUITES = ("divided_differences", "quadrature")

    def test_bodies_match_at_one_and_two_threads(self, tmp_path):
        script = ("import sys; from moikit.cli import main; sys.exit(max(main(['verify', "
                  "'--seed', '7', '--filter', s, '--out', s + '.json']) for s in sys.argv[1:]))")
        src = str(Path(moikit.__file__).resolve().parents[1])
        bodies = []
        for threads in ("1", "2"):
            cwd = tmp_path / f"threads{threads}"
            cwd.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-c", script, *self.SUITES],
                           cwd=cwd, env=env, check=True, capture_output=True)
            bodies.append([(cwd / f"{suite}.json.body").read_bytes() for suite in self.SUITES])
        assert bodies[0] == bodies[1]
