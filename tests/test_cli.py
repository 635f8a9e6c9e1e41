import json
import math
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


FIXTURES = Path(__file__).parent / "fixtures"


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

    def test_triple_eigenvalue_passes_every_row(self, tmp_path, square_fn):
        # 2 I_3: three equal eigenvalues, one per eigenvector, in order
        mat = matrix_file(tmp_path, "a.json", 2.0 * np.eye(3))
        out = tmp_path / "out.json"
        assert main(["eval", "--function", square_fn, "--matrix", mat,
                     "--out", str(out)]) == 0
        np.testing.assert_allclose(load_matrix(out), 4.0 * np.eye(3), atol=1e-12)
        report = json.loads((tmp_path / "out.json.report.json").read_text())
        assert report["overall_pass"] is True
        assert [c["name"] for c in report["checks"]] == [
            "resolution of identity", "orthogonal idempotents", "multiplicities",
            "reconstruction", "ordering"]
        ordering = report["checks"][-1]
        assert (ordering["lhs"], ordering["rhs"]) == (0.0, 0.0)

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


    COS_K2 = (str(FIXTURES / "cos_fn.json"),
              [str(FIXTURES / f"cos_k2_{name}.json") for name in ("base", "dir1", "dir2")])

    def run_check(self, tmp_path, fn, mats, *extra):
        """The exit code and the check row of ``derivative --check`` on the
        function file ``fn`` and the matrix files ``mats``."""
        out = tmp_path / "d.json"
        args = ["derivative", "--function", fn, "--order", str(len(mats) - 1), "--check",
                "--out", str(out), *extra]
        for m in mats:
            args += ["--matrix", m]
        code = main(args)
        return code, json.loads((tmp_path / "d.json.report.json").read_text())["checks"][0]

    def random_case(self, tmp_path, order, base):
        rng = np.random.default_rng(3)
        mats = [matrix_file(tmp_path, "a.json", base)]
        for i in range(order):
            B = rng.standard_normal((len(base), len(base)))
            mats.append(matrix_file(tmp_path, f"b{i}.json", 0.5 * (B + B.T)))
        return mats

    @pytest.mark.parametrize("order", [2, 3])
    def test_check_runs_the_block_oracle_where_f_has_a_matrix_form(self, tmp_path, order):
        # k = 2 on the shipped cos fixture, k = 3 on a random case
        fn, mats = self.COS_K2
        if order == 3:
            A = np.random.default_rng(4).standard_normal((4, 4))
            mats = self.random_case(tmp_path, order, 0.4 * (A + A.T))
        code, check = self.run_check(tmp_path, fn, mats)
        assert code == 0 and check["passed"] is True
        assert check["name"] == "derivative vs block-triangular oracle"
        assert check["tolerance"] == 1e-11
        assert check["residual"] <= 1e-12

    @pytest.mark.parametrize("order", [2, 3])
    def test_check_runs_the_stencil_of_each_precision(self, tmp_path, order):
        # |x|^3.5 has no matrix form: k = 2 runs the double-precision stencil,
        # k = 3 the 30-digit one, on a spectrum straddling 0
        fn = write_json(tmp_path / "abs_pow.json",
                        {"kind": "builtin", "name": "abs_pow", "params": {"exponent": 3.5}})
        mats = self.random_case(tmp_path, order, np.diag([-0.4, 0.1, 0.3, 0.6]))
        code, check = self.run_check(tmp_path, fn, mats)
        assert code == 0 and check["passed"] is True
        assert check["name"] == "derivative vs stencil oracle"
        assert check["tolerance"] == 1e-4
        assert check["residual"] <= 1e-6

    def test_block_oracle_tolerance_override(self, tmp_path):
        code, check = self.run_check(tmp_path, *self.COS_K2,
                                     "--tolerance", "derivative_block=1e-30")
        assert code == 1 and check["passed"] is False
        assert check["tolerance"] == 1e-30

    def test_stencil_strategy_is_gated_at_the_stencil_tolerance(self, tmp_path):
        # the double-precision stencil misses the exact block oracle by far
        # more than derivative_block
        code, check = self.run_check(tmp_path, *self.COS_K2, "--strategy", "fd")
        assert code == 0 and check["passed"] is True
        assert check["name"] == "derivative vs block-triangular oracle"
        assert check["tolerance"] == 1e-4
        assert check["residual"] > 1e-11

    def test_stencil_strategy_without_a_matrix_form_has_no_oracle_exits_2(
            self, tmp_path, caplog):
        # |x|^2 has no matrix form, and the stencil oracle would be the very
        # computation the fd strategy ran, agreeing at residual 0
        mats = [str(FIXTURES / name) for name in
                ("zero_eig_base.json", "cos_k2_dir1.json", "cos_k2_dir2.json")]
        out = tmp_path / "d.json"
        argv = ["derivative", "--function", str(FIXTURES / "abs_pow2_fn.json"),
                "--order", "2", "--check", "--strategy", "fd", "--out", str(out)]
        for m in mats:
            argv += ["--matrix", m]
        assert main(argv) == 2
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].name == "moikit"
        assert "no matrix form" in errors[0].getMessage()
        assert list(tmp_path.iterdir()) == []

    def test_oracle_time_leaves_out_the_scipy_import(self, tmp_path):
        # the block oracle needs scipy.linalg, which moikit imports on first
        # use: in a fresh process, it must be loaded when the oracle's timer
        # starts, so that the timer reads the oracle alone
        script = ("import json, sys, time, types\n"
                  "from moikit import cli\n"
                  "loaded = []\n"
                  "def clock():\n"
                  "    loaded.append('scipy.linalg' in sys.modules)\n"
                  "    return time.perf_counter()\n"
                  "cli.time = types.SimpleNamespace(perf_counter=clock)\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "print(json.dumps([code, loaded]))\n")
        fn, mats = self.COS_K2
        args = ["derivative", "--function", fn, "--order", "2", "--check",
                "--out", str(tmp_path / "d.json")]
        for m in mats:
            args += ["--matrix", m]
        src = str(Path(moikit.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                              check=True, capture_output=True, text=True)
        code, loaded = json.loads(proc.stdout.splitlines()[-1])
        # derivative start and end, then oracle start and end
        assert code == 0 and loaded == [False, False, True, True]


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

    def test_perturbation_of_another_size_exits_2(self, tmp_path, caplog, cos_fn):
        a = matrix_file(tmp_path, "a.json", np.diag([0.3, 1.2, -0.4]))
        b = matrix_file(tmp_path, "b.json", 0.1 * np.eye(2))
        out = tmp_path / "r.json"
        assert main(["remainder", "--function", cos_fn, "--matrix", a,
                     "--matrix", b, "--order", "2", "--out", str(out)]) == 2
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].name == "moikit"
        assert not out.exists()


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


class TestSettings:
    # every setting is checked after the --config file and the flags merge,
    # and a bad one exits 3 with a single error line

    @pytest.fixture
    def inputs(self, tmp_path, square_fn):
        a = matrix_file(tmp_path, "a.json", np.diag([1.0, 2.0]))
        return {"function": square_fn, "matrices": [a, a]}

    def assert_exits_3(self, caplog, argv):
        caplog.clear()
        assert main(argv) == 3
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].name == "moikit"

    @pytest.mark.parametrize("config", [
        {"tolerances": {"rule_mass": "1e-12"}},
        {"tolerances": {"nonsense": 1e-3}},
        {"tolerances": [["rule_mass", 1e-12]]},
        {"tolerances": {"rule_mass": math.nan}},
        {"sed": 3},
        {"seed": 3.9},
        {"seed": True},
        {"order": 2},
        {"filter": ["truncation"]},
        {"seed": -1, "filter": "truncation"},
        {"seed": 2**128},
        ["seed", 3],
    ])
    def test_bad_verify_config_exits_3(self, tmp_path, caplog, config):
        cfg = write_json(tmp_path / "cfg.json", config)
        self.assert_exits_3(caplog, ["verify", "--config", cfg,
                                     "--out", str(tmp_path / "r.json")])
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command, config", [
        ("derivative", {"order": "x"}),
        ("derivative", {"order": 1.5}),
        ("derivative", {"check": "yes"}),
        ("derivative", {"strategy": "nope"}),
        ("derivative", {"strategy": ["moi"]}),
        ("derivative", {"strategy": "finite_difference"}),
        ("derivative", {"strategy": "power_closed_form"}),
        ("derivative", {"seed": 1}),
        ("derivative", {"matrices": "a.json"}),
        ("derivative", {"out": 3}),
        ("remainder", {"check": True}),
        ("eval", {"order": 1}),
    ])
    def test_bad_command_config_exits_3(self, tmp_path, caplog, inputs, command, config):
        cfg = write_json(tmp_path / "cfg.json", {**inputs, **config})
        self.assert_exits_3(caplog, [command, "--config", cfg])

    @pytest.mark.parametrize("argv", [
        ["verify", "--matrix", "x.json"],
        ["verify", "--order", "2"],
        ["verify", "--seed", "abc"],
        ["verify", "--seed", "-1", "--filter", "truncation"],
        ["verify", "--seed", str(2**128), "--filter", "truncation"],
        ["verify", "--tolerance", "rule_mass"],
        ["verify", "--tolerance", "rule_mass=tiny"],
        ["verify", "--tolerance", "rule_mass=nan"],
        ["verify", "--tolerance", "rule_mass=-1"],
        ["verify", "--tolerance", "rule_mass=inf"],
        ["eval", "--order", "1"],
        ["eval", "--check"],
        ["remainder", "--strategy", "moi"],
        ["derivative", "--order", "abc"],
        ["derivative", "--seed", "1"],
        ["frobnicate"],
        [],
    ])
    def test_flags_not_read_or_malformed_exit_3(self, caplog, argv):
        self.assert_exits_3(caplog, argv)

    def test_tolerance_out_of_range_is_named(self, tmp_path, caplog):
        # NaN would also reach the body as a token that strict JSON rejects
        self.assert_exits_3(caplog, ["verify", "--filter", "quadrature", "--tolerance",
                                     "rule_mass=nan", "--out", str(tmp_path / "r.json")])
        assert "tolerance rule_mass" in caplog.records[-1].getMessage()
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command, count", [("eval", 2), ("remainder", 1),
                                                ("remainder", 3)])
    def test_matrix_count_exits_3(self, tmp_path, caplog, inputs, command, count):
        argv = [command, "--function", inputs["function"]]
        for _ in range(count):
            argv += ["--matrix", inputs["matrices"][0]]
        self.assert_exits_3(caplog, argv)

    def test_missing_function_exits_3(self, caplog, inputs):
        self.assert_exits_3(caplog, ["eval", "--matrix", inputs["matrices"][0]])

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seed_range_ends_pass(self, tmp_path, seed):
        assert main(["verify", "--seed", str(seed), "--filter", "truncation",
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_flags_override_the_file_and_tolerances_merge_per_name(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "seed": 3, "filter": "truncation", "out": str(tmp_path / "other.json"),
            "tolerances": {"truncation_grid": 1, "rule_mass": 1}})
        assert main(["verify", "--config", cfg, "--seed", "5", "--out", str(out),
                     "--tolerance", "rule_mass=2e-12"]) == 0
        config = json.loads((tmp_path / "report.json.body").read_text())["config"]
        assert config["seed"] == 5
        assert config["out"] == str(out)
        assert config["tolerances"] == {"rule_mass": 2e-12, "truncation_grid": 1.0}
        assert list(config["tolerances"]) == ["rule_mass", "truncation_grid"]
        assert isinstance(config["tolerances"]["truncation_grid"], float)
        assert not (tmp_path / "other.json").exists()

    def test_integer_text_and_numbers_pass(self, tmp_path, inputs):
        out = tmp_path / "d.json"
        cfg = write_json(tmp_path / "cfg.json", {
            **inputs, "order": "1", "check": True, "strategy": "fd", "out": str(out),
            "tolerances": {"derivative_fd": 1}})
        assert main(["derivative", "--config", cfg]) == 0
        config = json.loads((tmp_path / "d.json.report.json.body").read_text())["config"]
        assert config["order"] == 1 and config["tolerances"] == {"derivative_fd": 1.0}

    def test_error_is_one_line_without_traceback(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"tolerances": {"rule_mass": "1e-12"}})
        src = str(Path(moikit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "moikit.cli", "verify",
                               "--config", cfg], env=env, capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("ERROR moikit: ")


class TestMalformedFunctionSpec:
    @pytest.mark.parametrize("spec", [
        {"kind": "polynomial", "coeffs": [1, 2]},
        [1, 2],
        {"kind": "builtin", "name": "abs_pow", "params": {"exponent": float("inf")}},
    ], ids=["bare_coefficients", "not_an_object", "infinite_exponent"])
    def test_exits_3_with_one_error_line(self, tmp_path, spec):
        fn = write_json(tmp_path / "f.json", spec)
        a = matrix_file(tmp_path, "a.json", np.diag([0.5, 1.5]))
        src = str(Path(moikit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "moikit.cli", "eval",
                               "--function", fn, "--matrix", a], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("ERROR moikit: ")


class TestEvaluationDomain:
    # finite numbers whose function values overflow on the spectrum; a
    # number that is not finite is a malformed spec, which exits 3
    @pytest.mark.parametrize("spec", [
        {"kind": "wiener", "atoms": [[0.0, sys.float_info.max, 0.0],
                                     [1e-300, sys.float_info.max, 0.0]]},
        {"kind": "polynomial",
         "coeffs": [[sys.float_info.max, 0], [0, 0], [sys.float_info.max / 2, 0]]},
    ])
    @pytest.mark.parametrize("command", ["eval", "derivative"])
    def test_non_finite_function_exits_2(self, tmp_path, command, spec):
        fn = write_json(tmp_path / "f.json", spec)
        a = matrix_file(tmp_path, "a.json", np.diag([0.5, 1.5]))
        out = tmp_path / "out.json"
        argv = [command, "--function", fn, "--matrix", a, "--out", str(out)]
        if command == "derivative":
            argv += ["--matrix", a, "--order", "1"]
        assert main(argv) == 2
        assert not out.exists()


class TestBodiesAcrossBlasThreads:
    # the divided-difference and quadrature suites sum over simplex rules,
    # which a threaded BLAS would split by its thread count; the spectral
    # suite runs the Jacobi oracle, the derivative suite the Jacobi stencil
    # and the block-triangular oracle, whose expm runs BLAS products, and the
    # norm-bound suite takes its probe norms from stacked LAPACK SVDs
    SUITES = ("divided_differences", "quadrature", "spectral", "derivative", "norm_bound")

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
