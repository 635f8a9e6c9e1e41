import math

import numpy as np
import pytest

from moikit import (
    ConvergenceFailure,
    DerivativeRequest,
    HolderMismatch,
    InvalidP,
    MoiOperands,
    MoiSymbol,
    Polynomial,
    SchattenSpec,
    WienerAtomic,
    finite_difference_derivative,
    matrix_function_derivative,
    moi_schatten_check,
    power_map_derivative,
    remainder_schatten_check,
    schatten_norm,
    taylor_remainder_direct,
    taylor_remainder_integral,
    taylor_remainder_moi,
)
from moikit.verify import random_hermitian, suite_rng

COS = WienerAtomic([(1.0, 0.5), (-1.0, 0.5)])


def monomial(power):
    return Polynomial([0] * power + [1])


class TestPowerMap:
    def test_square_first_derivative(self):
        rng = suite_rng(31, 0)
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        np.testing.assert_allclose(power_map_derivative(2, a, [b]),
                                   a @ b + b @ a, atol=1e-12)

    def test_square_second_derivative(self):
        rng = suite_rng(32, 0)
        a = random_hermitian(rng, 3)
        b1, b2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        np.testing.assert_allclose(power_map_derivative(2, a, [b1, b2]),
                                   b1 @ b2 + b2 @ b1, atol=1e-12)

    def test_order_above_power_is_zero(self):
        rng = suite_rng(33, 0)
        a = random_hermitian(rng, 3)
        dirs = [random_hermitian(rng, 3) for _ in range(2)]
        np.testing.assert_allclose(power_map_derivative(1, a, dirs), np.zeros((3, 3)))

    def test_non_hermitian_inputs_allowed(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.eye(2)
        np.testing.assert_allclose(power_map_derivative(2, a, [b]), a + a)


class TestMatrixFunctionDerivative:
    def test_polynomial_matches_power_map(self):
        rng = suite_rng(34, 0)
        for k in (1, 2):
            for m in (2, 4, 7):
                a = random_hermitian(rng, 4)
                dirs = tuple(random_hermitian(rng, 4) for _ in range(k))
                via_moi = matrix_function_derivative(
                    DerivativeRequest(monomial(m), a, dirs, k, "moi"))
                via_pow = power_map_derivative(m, a, dirs)
                scale = 1 + np.linalg.norm(via_pow)
                assert np.linalg.norm(via_moi - via_pow) / scale < 1e-10

    def test_power_closed_form_strategy(self):
        rng = suite_rng(35, 0)
        a = random_hermitian(rng, 3)
        dirs = (random_hermitian(rng, 3),)
        p = Polynomial([1.0, -2.0, 0.5, 1.5])
        via_moi = matrix_function_derivative(DerivativeRequest(p, a, dirs, 1, "moi"))
        via_pow = matrix_function_derivative(
            DerivativeRequest(p, a, dirs, 1, "power_closed_form"))
        np.testing.assert_allclose(via_moi, via_pow, atol=1e-10)

    def test_diagonal_base_entrywise(self):
        lam = np.array([0.3, 1.1, 2.4])
        B = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        value = matrix_function_derivative(
            DerivativeRequest(COS, np.diag(lam), (B,), 1, "moi"))
        from moikit import divided_difference
        expected = np.array([[complex(divided_difference(COS, [x, y])) for y in lam]
                             for x in lam]) * B
        np.testing.assert_allclose(value, expected, atol=1e-10)

    def test_constant_function_zero(self):
        rng = suite_rng(36, 0)
        a = random_hermitian(rng, 3)
        value = matrix_function_derivative(
            DerivativeRequest(Polynomial([5.0]), a, (a,), 1, "moi"))
        np.testing.assert_allclose(value, np.zeros((3, 3)), atol=1e-14)

    def test_direction_symmetry(self):
        rng = suite_rng(37, 0)
        a = random_hermitian(rng, 3, norm=0.9)
        b1, b2 = (random_hermitian(rng, 3) for _ in range(2))
        fwd = matrix_function_derivative(DerivativeRequest(COS, a, (b1, b2), 2, "moi"))
        rev = matrix_function_derivative(DerivativeRequest(COS, a, (b2, b1), 2, "moi"))
        np.testing.assert_allclose(fwd, rev, atol=1e-12)

    def test_request_validation(self):
        rng = suite_rng(38, 0)
        a = random_hermitian(rng, 3)
        with pytest.raises(ValueError):
            DerivativeRequest(COS, a, (a,), 2, "moi")
        with pytest.raises(ValueError):
            DerivativeRequest(COS, a, (a,), 1, "bogus")


class TestFiniteDifference:
    def test_square_first_order(self):
        rng = suite_rng(39, 0)
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        fd = finite_difference_derivative(monomial(2), a, [b], step=1e-5,
                                          richardson=False)
        np.testing.assert_allclose(fd, a @ b + b @ a, atol=1e-8)

    def test_affine_second_order_vanishes(self):
        rng = suite_rng(40, 0)
        a = random_hermitian(rng, 3)
        dirs = [random_hermitian(rng, 3) for _ in range(2)]
        # double precision leaves ~1e-7 of stencil cancellation noise here;
        # the extended path reveals the exact zero
        fd = finite_difference_derivative(Polynomial([1.0, 2.0]), a, dirs,
                                          extended=True)
        assert np.linalg.norm(fd) < 1e-8

    def test_cos_matches_spectral_sum(self):
        rng = suite_rng(41, 0)
        a = random_hermitian(rng, 4, norm=0.8)
        b = random_hermitian(rng, 4, norm=1.0)
        fd = finite_difference_derivative(COS, a, [b])
        exact = matrix_function_derivative(DerivativeRequest(COS, a, (b,), 1, "moi"))
        assert np.linalg.norm(fd - exact) / np.linalg.norm(exact) < 1e-7

    def test_extended_precision_third_order(self):
        rng = suite_rng(42, 0)
        a = random_hermitian(rng, 3, norm=0.7)
        dirs = tuple(random_hermitian(rng, 3, norm=1.0) for _ in range(3))
        fd = finite_difference_derivative(COS, a, dirs)  # extended path by default
        exact = matrix_function_derivative(DerivativeRequest(COS, a, dirs, 3, "moi"))
        assert np.linalg.norm(fd - exact) / np.linalg.norm(exact) < 1e-9


class TestTaylorRemainders:
    def test_first_order_is_plain_difference(self):
        rng = suite_rng(44, 0)
        a = random_hermitian(rng, 4, norm=0.7)
        b = random_hermitian(rng, 4, norm=0.4)
        from moikit import functional_calculus, hermitian_eigendecompose
        direct = taylor_remainder_direct(COS, 1, a, b)
        expected = functional_calculus(COS, hermitian_eigendecompose(a + b)) \
            - functional_calculus(COS, hermitian_eigendecompose(a))
        np.testing.assert_allclose(direct, expected, atol=1e-13)

    def test_square_second_order(self):
        rng = suite_rng(45, 0)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        for form in (taylor_remainder_direct, taylor_remainder_moi):
            np.testing.assert_allclose(form(monomial(2), 2, a, b), b @ b, atol=1e-11)

    def test_zero_perturbation(self):
        rng = suite_rng(46, 0)
        a = random_hermitian(rng, 3)
        z = np.zeros((3, 3))
        for form in (taylor_remainder_direct, taylor_remainder_moi):
            np.testing.assert_allclose(form(COS, 2, a, z), z, atol=1e-13)
        np.testing.assert_allclose(taylor_remainder_integral(COS, 2, a, z), z,
                                   atol=1e-13)

    def test_moi_form_matches_direct_polynomial(self):
        rng = suite_rng(47, 0)
        a = random_hermitian(rng, 4, norm=0.8)
        b = random_hermitian(rng, 4, norm=0.5)
        p = Polynomial([0.2, -1.0, 0.7, 0.3, 1.1])
        for k in (1, 2, 3):
            direct = taylor_remainder_direct(p, k, a, b)
            mixed = taylor_remainder_moi(p, k, a, b)
            scale = 1 + np.linalg.norm(direct)
            assert np.linalg.norm(direct - mixed) / scale < 1e-10

    def test_integral_form_square_first_order(self):
        rng = suite_rng(48, 0)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3, norm=0.6)
        integral = taylor_remainder_integral(monomial(2), 1, a, b, steps=8)
        direct = taylor_remainder_direct(monomial(2), 1, a, b)
        np.testing.assert_allclose(integral, direct, atol=1e-11)
        np.testing.assert_allclose(integral, a @ b + b @ a + b @ b, atol=1e-11)

    def test_integral_form_cos(self):
        rng = suite_rng(49, 0)
        a = random_hermitian(rng, 3, norm=0.8)
        b = random_hermitian(rng, 3, norm=0.4)
        integral = taylor_remainder_integral(COS, 2, a, b, steps=32)
        direct = taylor_remainder_direct(COS, 2, a, b)
        scale = 1 + np.linalg.norm(direct)
        assert np.linalg.norm(integral - direct) / scale < 1e-8


class TestSchattenNorm:
    def test_identity(self):
        for n in (1, 3, 6):
            for p in (1.0, 2.0, 4.0):
                assert schatten_norm(np.eye(n), p) == pytest.approx(n ** (1 / p))
            assert schatten_norm(np.eye(n), math.inf) == pytest.approx(1.0)

    def test_three_four_five(self):
        assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0)

    def test_zero_matrix(self):
        assert schatten_norm(np.zeros((4, 4)), 1) == 0.0

    def test_invalid_exponent(self):
        with pytest.raises(InvalidP):
            schatten_norm(np.eye(2), 0.5)
        with pytest.raises(InvalidP):
            SchattenSpec(0.99)

    def test_spec_object_accepted(self):
        assert schatten_norm(np.eye(2), SchattenSpec(2.0)) == pytest.approx(np.sqrt(2))

    def test_trace_norm_keeps_a_tiny_singular_value(self):
        # through the eigenvalues of M* M, sigma = 1e-9 drowns in rounding of 1
        rng = suite_rng(51, 0)
        U, W = (np.linalg.qr(rng.standard_normal((2, 2))
                             + 1j * rng.standard_normal((2, 2)))[0] for _ in range(2))
        M = U @ np.diag([1.0, 1e-9]) @ W.conj().T
        assert schatten_norm(M, 1) == pytest.approx(1.0 + 1e-9, rel=1e-12)

    def test_lapack_failure_is_a_convergence_failure(self, monkeypatch):
        def no_convergence(M, compute_uv):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(ConvergenceFailure):
            schatten_norm(np.eye(2), 1)

    def test_unitary_invariance(self):
        rng = suite_rng(50, 0)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        Q = np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
        for p in (1.0, 2.0, math.inf):
            assert schatten_norm(Q @ M, p) == pytest.approx(schatten_norm(M, p),
                                                            rel=1e-10)


class TestRemainderSchattenCheck:
    def test_zero_perturbation_trivially_passes(self):
        rng = suite_rng(51, 0)
        a = random_hermitian(rng, 3)
        report = remainder_schatten_check(COS, 1, a, np.zeros((3, 3)), p=1.0)
        assert report.passed
        assert report.checks[0].lhs == pytest.approx(0.0, abs=1e-14)

    def test_cos_first_order_trace_norm(self):
        rng = suite_rng(52, 0)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4, norm=0.8)
        report = remainder_schatten_check(COS, 1, a, b, p=1.0)
        check = report.checks[0]
        # moment_1(cos) = 1, so the bound is exactly the trace norm of b
        assert check.rhs == pytest.approx(schatten_norm(b, 1.0))
        assert report.passed

    def test_single_atom_second_order_bound_value(self):
        rng = suite_rng(53, 0)
        f = WienerAtomic([(2.0, 1.0)])
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4, norm=0.5)
        report = remainder_schatten_check(f, 2, a, b, p=1.0)
        check = report.checks[0]
        assert check.rhs == pytest.approx(2.0 * schatten_norm(b, 2.0) ** 2)
        assert report.passed

    def test_infinite_p_rejected(self):
        rng = suite_rng(54, 0)
        a = random_hermitian(rng, 3)
        with pytest.raises(InvalidP):
            remainder_schatten_check(COS, 1, a, a, p=math.inf)


class TestMoiSchattenCheck:
    def test_zero_middles_pass(self):
        rng = suite_rng(55, 0)
        bases = [random_hermitian(rng, 3) for _ in range(2)]
        ops = MoiOperands.from_matrices(bases, [np.zeros((3, 3))])
        symbol = MoiSymbol.from_function(COS, 1)
        assert moi_schatten_check(symbol, ops, [2.0]).passed

    def test_constant_symbol_equality(self):
        rng = suite_rng(56, 0)
        B = random_hermitian(rng, 4)
        ops = MoiOperands.from_matrices([random_hermitian(rng, 4)] * 2, [B])
        report = moi_schatten_check(MoiSymbol.constant(1.0, 2), ops, [2.0])
        check = report.checks[0]
        assert check.lhs == pytest.approx(check.rhs, rel=1e-9)
        assert report.passed

    def test_holder_mismatch(self):
        rng = suite_rng(57, 0)
        ops = MoiOperands.from_matrices(
            [random_hermitian(rng, 3) for _ in range(3)],
            [random_hermitian(rng, 3) for _ in range(2)])
        symbol = MoiSymbol.from_function(COS, 2)
        with pytest.raises(HolderMismatch):
            moi_schatten_check(symbol, ops, [1.0, 1.0])  # target p below 1
        with pytest.raises(HolderMismatch):
            moi_schatten_check(symbol, ops, [2.0, 2.0], p_total=2.0)
        with pytest.raises(HolderMismatch):
            moi_schatten_check(symbol, ops, [2.0])

    def test_symbol_without_bound_rejected(self):
        rng = suite_rng(58, 0)
        ops = MoiOperands.from_matrices(
            [random_hermitian(rng, 3) for _ in range(2)],
            [random_hermitian(rng, 3)])
        with pytest.raises(ValueError):
            moi_schatten_check(MoiSymbol(2, lambda lam: 1.0), ops, [1.0])
