"""Stress cases: spectra with tiny gaps, high orders, schema stability.

Near-degenerate, chained and repeated eigenvalues and tiny perturbations
produce node gaps that the difference-quotient recursion cannot survive;
these tests pin the full pipelines in that regime, on either side of the
gap ``CLUSTER_TOL_FACTOR (1 + ||A||_F)`` at which the index groups of
``SpectralDecomposition.clusters`` merge.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from moikit import (
    DerivativeRequest,
    MoiOperands,
    MoiSymbol,
    Polynomial,
    WienerAtomic,
    block_triangular_derivative,
    builtin_function,
    functional_calculus,
    hermitian_eigendecompose,
    matrix_function_derivative,
    moi_evaluate,
    moi_perturbation,
    moi_polynomial,
    taylor_remainder_direct,
    taylor_remainder_moi,
)
from moikit.verify import DEFAULT_TOLERANCES, random_hermitian, suite_rng

COS = WienerAtomic([(1.0, 0.5), (-1.0, 0.5)])


def near_degenerate(rng, n, gap):
    """Hermitian matrix with one eigenvalue pair separated by exactly gap."""
    eigs = np.sort(rng.uniform(-1.0, 1.0, n))
    eigs[1] = eigs[0] + gap
    Q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(eigs).astype(complex) @ Q.conj().T
    return 0.5 * (A + A.conj().T)


class TestNearDegenerateBase:
    @pytest.mark.parametrize("gap", [1e-3, 1e-5])
    def test_derivative_matches_the_block_oracle(self, gap):
        rng = suite_rng(71, 0)
        A = near_degenerate(rng, 4, gap)
        dirs = tuple(random_hermitian(rng, 4, norm=1.0) for _ in range(2))
        via_moi = matrix_function_derivative(DerivativeRequest(COS, A, dirs, 2, "moi"))
        oracle = block_triangular_derivative(COS, A, dirs)
        rel = np.linalg.norm(via_moi - oracle) / (1 + np.linalg.norm(via_moi))
        assert rel < 1e-8

    def test_tiny_perturbation_identity(self):
        rng = suite_rng(72, 0)
        A = random_hermitian(rng, 5)
        B = A + 1e-6 * random_hermitian(rng, 5)   # cross-spectrum gaps ~1e-6
        for f in (COS, Polynomial([0.5, -1.0, 0.25, 1.0])):
            report = moi_perturbation(f, A, B)
            assert report.passed, report.summary()

    def test_tiny_perturbation_remainder_forms_agree(self):
        rng = suite_rng(73, 0)
        a = random_hermitian(rng, 4, norm=0.8)
        b = 1e-5 * random_hermitian(rng, 4, norm=1.0)
        for k in (1, 2):
            direct = taylor_remainder_direct(COS, k, a, b)
            mixed = taylor_remainder_moi(COS, k, a, b)
            scale = 1 + np.linalg.norm(direct)
            assert np.linalg.norm(direct - mixed) / scale < 1e-8


def adversarial_spectrum(rng, case, n=8):
    """A Hermitian ``n x n`` matrix whose spectrum is ``case``: ``("pair",
    gap)``, ``("chain", gap)`` (five eigenvalues ``gap`` apart), ``"triple"``
    (three eigenvalues set equal in LAPACK's own eigenbasis) or ``"scalar"``
    (``0.7 I``)."""
    if case == "scalar":
        return 0.7 * np.eye(n, dtype=complex)
    if case == "triple":
        lam, V = np.linalg.eigh(random_hermitian(rng, n, norm=1.0))
        lam[2:5] = lam[3]
        return (V * lam) @ V.conj().T
    kind, gap = case
    eigs = np.sort(rng.uniform(-1.0, 1.0, n))
    members = 2 if kind == "pair" else 5
    eigs[:members] = eigs[0] + gap * np.arange(members)
    Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    A = (Q * eigs) @ Q.conj().T
    return 0.5 * (A + A.conj().T)


ADVERSARIAL_CASES = [("pair", gap) for gap in (1e-6, 1e-7, 1e-8, 1e-10, 1e-12)] + [
    ("chain", 1e-9), "triple", "scalar"]


def scaled_gap(value, reference):
    return np.linalg.norm(value - reference) / (1.0 + np.linalg.norm(value))


class TestAdversarialSpectra:
    # close, chained and repeated eigenvalues are evaluated where they are,
    # so the derivative meets the exact block oracle at its verify gate
    @pytest.mark.parametrize("case", ADVERSARIAL_CASES, ids=str)
    def test_derivative_matches_the_block_oracle(self, case):
        rng = suite_rng(75, ADVERSARIAL_CASES.index(case))
        A = adversarial_spectrum(rng, case)
        gate = DEFAULT_TOLERANCES["derivative_block"]
        for name in ("exp", "cos"):
            f = builtin_function(name)
            for k in (1, 2, 3):
                dirs = tuple(random_hermitian(rng, 8, norm=1.0) for _ in range(k))
                via_moi = matrix_function_derivative(DerivativeRequest(f, A, dirs, k, "moi"))
                gap = scaled_gap(via_moi, block_triangular_derivative(f, A, dirs))
                assert gap <= gate, (name, k, gap)

    @pytest.mark.parametrize("case", ADVERSARIAL_CASES, ids=str)
    def test_exp_matches_expm(self, case):
        A = adversarial_spectrum(suite_rng(76, ADVERSARIAL_CASES.index(case)), case)
        value = functional_calculus(builtin_function("exp"), hermitian_eigendecompose(A))
        assert scaled_gap(value, scipy.linalg.expm(A)) <= DEFAULT_TOLERANCES["derivative_block"]


class TestOrderFour:
    def test_monomial_integral_matches_direct_sum(self):
        rng = suite_rng(74, 0)
        bases = [random_hermitian(rng, 3) for _ in range(5)]
        middles = [random_hermitian(rng, 3) for _ in range(4)]
        ops = MoiOperands.from_matrices(bases, middles)
        symbol = MoiSymbol.from_function(Polynomial([0] * 6 + [1]), 4)
        direct = moi_evaluate(symbol, ops)
        closed = moi_polynomial(6, ops)
        scale = 1 + np.linalg.norm(closed)
        assert np.linalg.norm(direct - closed) / scale < 1e-9

    def test_fourth_derivative_of_quartic(self):
        rng = suite_rng(75, 0)
        A = random_hermitian(rng, 3)
        dirs = tuple(random_hermitian(rng, 3) for _ in range(4))
        # D^4 of x^4 is the full symmetrization of the directions product
        value = matrix_function_derivative(
            DerivativeRequest(Polynomial([0, 0, 0, 0, 1]), A, dirs, 4, "moi"))
        import itertools
        expected = sum(dirs[p[0]] @ dirs[p[1]] @ dirs[p[2]] @ dirs[p[3]]
                       for p in itertools.permutations(range(4)))
        np.testing.assert_allclose(value, expected, atol=1e-10)


class TestReportSchema:
    FIXTURES = Path(__file__).parent / "fixtures"
    COS = ["--function", str(FIXTURES / "cos_fn.json"),
           "--matrix", str(FIXTURES / "cos_k2_base.json")]
    DIR1 = ["--matrix", str(FIXTURES / "cos_k2_dir1.json")]
    DIR2 = ["--matrix", str(FIXTURES / "cos_k2_dir2.json")]
    # each command's arguments and the path of its report beside --out
    COMMANDS = {
        "eval": (["eval", *COS], ".report.json"),
        "derivative": (["derivative", "--order", "2", "--check", *COS, *DIR1, *DIR2],
                       ".report.json"),
        "remainder": (["remainder", "--order", "2", *COS, *DIR1], ".report.json"),
        "verify": (["verify", "--seed", "1", "--filter", "truncation"], ""),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_body_key_order_is_frozen(self, tmp_path, command):
        from moikit.cli import main
        argv, suffix = self.COMMANDS[command]
        out = tmp_path / "r.json"
        assert main([*argv, "--out", str(out)]) == 0
        report = Path(f"{out}{suffix}")
        body = json.loads(Path(f"{report}.body").read_text())
        assert list(body) == ["tool", "version", "config", "overall_pass", "checks"]
        assert body["checks"] and all(list(check) == [
            "name", "identity", "lhs", "rhs", "residual", "tolerance", "passed"]
            for check in body["checks"])
        full = json.loads(report.read_text())
        assert list(full) == [*body, "timings_seconds"]
        assert {key: full[key] for key in body} == body
