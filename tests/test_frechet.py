import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from moikit import (
    CallableFunction,
    ConvergenceFailure,
    DerivativeRequest,
    DimensionMismatch,
    EvaluationDomain,
    HolderMismatch,
    InvalidP,
    MoiOperands,
    MoiSymbol,
    Polynomial,
    WienerAtomic,
    block_triangular_derivative,
    finite_difference_derivative,
    functional_calculus,
    hermitian_eigendecompose,
    matrix_function_derivative,
    moi_perturbation,
    moi_schatten_check,
    power_map_derivative,
    remainder_schatten_check,
    schatten_norm,
    taylor_remainder_direct,
    taylor_remainder_integral,
    taylor_remainder_moi,
)
import moikit
from moikit import frechet
from moikit.scalar_functions import builtin_function
from moikit.verify import DEFAULT_TOLERANCES, random_hermitian, suite_rng

COS = WienerAtomic([(1.0, 0.5), (-1.0, 0.5)])


def monomial(power):
    return Polynomial([0] * power + [1])


class TestOperandShapes:
    # a direction or perturbation of another size is a violated
    # precondition at every entry point, not a numpy broadcast error
    ENTRY_POINTS = {
        "request": lambda a, b: DerivativeRequest(COS, a, (b,), 1),
        "power_map": lambda a, b: power_map_derivative(2, a, [b]),
        "finite_difference": lambda a, b: finite_difference_derivative(COS, a, [b]),
        "block_triangular": lambda a, b: block_triangular_derivative(COS, a, [b]),
        "remainder_direct": lambda a, b: taylor_remainder_direct(COS, 2, a, b),
        "remainder_moi": lambda a, b: taylor_remainder_moi(COS, 2, a, b),
        "remainder_integral": lambda a, b: taylor_remainder_integral(COS, 2, a, b),
        "remainder_schatten": lambda a, b: remainder_schatten_check(COS, 2, a, b, 1.0),
        "perturbation": lambda a, b: moi_perturbation(COS, a, b),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_mismatched_shapes_raise(self, entry):
        rng = suite_rng(47, 0)
        with pytest.raises(DimensionMismatch):
            self.ENTRY_POINTS[entry](random_hermitian(rng, 3), random_hermitian(rng, 2))

    def test_power_map_still_takes_non_hermitian_input(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(power_map_derivative(2, a, [np.eye(2)]), 2 * a)


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

    def test_cube_second_derivative_at_a_non_hermitian_base(self):
        rng = suite_rng(36, 0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b1, b2 = (rng.standard_normal((3, 3)) for _ in range(2))
        # both direction orders, each over the splittings of a^1
        by_hand = sum(x @ y @ a + x @ a @ y + a @ x @ y for x, y in ((b1, b2), (b2, b1)))
        np.testing.assert_allclose(power_map_derivative(3, a, [b1, b2]), by_hand,
                                   rtol=0, atol=1e-12)


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
            DerivativeRequest(p, a, dirs, 1, "power"))
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

    # finite numbers whose values overflow wherever the spectrum lies: the
    # constructors reject a number that is not finite
    @pytest.mark.parametrize("f", [
        WienerAtomic([(0.0, sys.float_info.max), (1e-300, sys.float_info.max)]),
        Polynomial([sys.float_info.max, 0.0, sys.float_info.max / 2])])
    @pytest.mark.parametrize("strategy", ["moi", "fd"])
    def test_non_finite_function_raises(self, f, strategy):
        rng = suite_rng(39, 0)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        with pytest.raises(EvaluationDomain):
            matrix_function_derivative(DerivativeRequest(f, a, (b,), 1, strategy))


class TestReversedDirectionOrders:
    # a real f contracts one order of each reversed pair and adds the adjoint;
    # the block oracle still sums all k! orders
    @pytest.fixture
    def moi_calls(self, monkeypatch):
        calls, evaluate = [], frechet.moi_evaluate

        def counted(symbol, operands, tensor=None):
            calls.append(operands.middles)
            return evaluate(symbol, operands, tensor=tensor)

        monkeypatch.setattr(frechet, "moi_evaluate", counted)
        return calls

    @staticmethod
    def case(k, seed):
        rng = suite_rng(seed, k)
        a = random_hermitian(rng, 5, norm=0.9)
        return a, tuple(random_hermitian(rng, 5, norm=1.0) for _ in range(k))

    @staticmethod
    def block_error(f, a, dirs, value):
        expected = block_triangular_derivative(f, a, dirs)
        return np.linalg.norm(value - expected) / (1.0 + np.linalg.norm(expected))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("f", [
        builtin_function("exp"), builtin_function("cos"), COS,
        Polynomial([0.3, -1.0, 0.5, 0.25, -0.125]),
    ], ids=["exp", "cos", "wiener_cos", "polynomial"])
    def test_real_function_takes_half_the_orders(self, f, k, moi_calls):
        a, dirs = self.case(k, 47)
        value = matrix_function_derivative(DerivativeRequest(f, a, dirs, k, "moi"))
        assert len(moi_calls) == math.factorial(k) // 2
        assert np.array_equal(value, value.conj().T)
        assert self.block_error(f, a, dirs, value) < DEFAULT_TOLERANCES["derivative_block"]

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("f", [
        WienerAtomic([(1.0, 1.0)]), Polynomial([0.3, -1.0j, 0.5, 0.25]),
    ], ids=["expi", "complex_polynomial"])
    def test_non_real_function_takes_every_order(self, f, k, moi_calls):
        a, dirs = self.case(k, 48)
        value = matrix_function_derivative(DerivativeRequest(f, a, dirs, k, "moi"))
        assert len(moi_calls) == math.factorial(k)
        assert self.block_error(f, a, dirs, value) < DEFAULT_TOLERANCES["derivative_block"]

    def test_user_callable_takes_every_order(self, moi_calls):
        a, dirs = self.case(3, 49)
        cos = CallableFunction(np.cos, [lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin])
        value = matrix_function_derivative(DerivativeRequest(cos, a, dirs, 3, "moi"))
        assert len(moi_calls) == 6
        expected = matrix_function_derivative(
            DerivativeRequest(builtin_function("cos"), a, dirs, 3, "moi"))
        assert np.linalg.norm(value - expected) < 1e-12 * (1.0 + np.linalg.norm(expected))

    def test_first_order_is_one_contraction(self, moi_calls):
        a, dirs = self.case(1, 50)
        matrix_function_derivative(DerivativeRequest(COS, a, dirs, 1, "moi"))
        assert len(moi_calls) == 1


class TestAbsPowAtZero:
    # |x|^s at x = 0 takes the limits of its derivatives: 0 below the
    # exponent, s! at an even integer exponent, and no finite value for s < 0

    @pytest.mark.parametrize("k", [1, 2])
    def test_square_at_a_zero_eigenvalue_matches_the_power_map(self, k):
        rng = suite_rng(40, k)
        base = np.diag([0.0, 1.0, 2.0])
        dirs = tuple(random_hermitian(rng, 3) for _ in range(k))
        f = builtin_function("abs_pow", {"exponent": 2})
        via_moi = matrix_function_derivative(DerivativeRequest(f, base, dirs, k, "moi"))
        via_pow = power_map_derivative(2, base, dirs)
        rel = np.linalg.norm(via_moi - via_pow) / (1.0 + np.linalg.norm(via_pow))
        assert rel <= DEFAULT_TOLERANCES["derivative_power"]

    def test_top_derivative_of_an_even_power_is_its_factorial(self):
        assert builtin_function("abs_pow", {"exponent": 4}).derivative(4)(0.0) == 24

    def test_zeroth_power_is_one_at_zero(self):
        assert builtin_function("abs_pow", {"exponent": 0})(0.0) == 1

    def test_negative_power_at_a_zero_eigenvalue_raises(self):
        f = builtin_function("abs_pow", {"exponent": -1})
        with pytest.raises(EvaluationDomain):
            functional_calculus(f, hermitian_eigendecompose(np.diag([0.0, 1.0])))


class TestFiniteDifference:
    def test_square_first_order(self):
        rng = suite_rng(39, 0)
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        fd = finite_difference_derivative(monomial(2), a, [b])
        np.testing.assert_allclose(fd, a @ b + b @ a, atol=1e-8)

    def test_affine_third_order_vanishes(self):
        rng = suite_rng(40, 0)
        a = random_hermitian(rng, 3)
        dirs = [random_hermitian(rng, 3) for _ in range(3)]
        # double precision would drown the exact zero in stencil cancellation
        # noise; at k = 3 the stencil runs in 30 digits and reveals it
        fd = finite_difference_derivative(Polynomial([1.0, 2.0]), a, dirs)
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
        fd = finite_difference_derivative(COS, a, dirs)  # 30 digits at k = 3
        exact = matrix_function_derivative(DerivativeRequest(COS, a, dirs, 3, "moi"))
        assert np.linalg.norm(fd - exact) / np.linalg.norm(exact) < 1e-9

    @pytest.mark.parametrize("f", [
        lambda x: np.cos(x),
        CallableFunction(np.cos, [lambda x: -np.sin(x)] * 3),
    ], ids=["plain", "no_mp_evaluator"])
    def test_extended_stencil_needs_an_mpmath_form(self, f):
        rng = suite_rng(43, 0)
        a = random_hermitian(rng, 3, norm=0.7)
        dirs = [random_hermitian(rng, 3) for _ in range(3)]
        with pytest.raises(EvaluationDomain):
            finite_difference_derivative(f, a, dirs)


class TestBlockTriangular:
    def test_monomials_match_the_power_map(self):
        rng = suite_rng(44, 0)
        for m in range(9):
            for k in (1, 2, 3):
                a = random_hermitian(rng, 4, norm=1.0)
                dirs = [random_hermitian(rng, 4, norm=1.0) for _ in range(k)]
                value = block_triangular_derivative(monomial(m), a, dirs)
                expected = power_map_derivative(m, a, dirs)
                scale = 1.0 + np.linalg.norm(expected)
                assert np.linalg.norm(value - expected) / scale < 1e-13, (m, k)

    @pytest.mark.parametrize("f", [
        builtin_function("exp"), builtin_function("cos"), builtin_function("sin"),
        WienerAtomic([(0.8, 1.0 - 0.5j), (-1.7, 0.3)]),
    ], ids=["exp", "cos", "sin", "wiener"])
    def test_matches_the_spectral_sum(self, f):
        rng = suite_rng(45, 0)
        for k in (1, 2, 3):
            a = random_hermitian(rng, 5, norm=0.9)
            dirs = tuple(random_hermitian(rng, 5, norm=1.0) for _ in range(k))
            value = block_triangular_derivative(f, a, dirs)
            expected = matrix_function_derivative(DerivativeRequest(f, a, dirs, k, "moi"))
            scale = 1.0 + np.linalg.norm(expected)
            assert np.linalg.norm(value - expected) / scale < 1e-11, k

    @pytest.mark.parametrize("f", [
        builtin_function("abs_pow", {"exponent": 2.5}),
        CallableFunction(lambda x: np.cos(x), [lambda x: -np.sin(x)] * 3),
    ], ids=["abs_pow", "callable"])
    def test_functions_without_a_matrix_form_raise(self, f):
        rng = suite_rng(46, 0)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        with pytest.raises(EvaluationDomain):
            block_triangular_derivative(f, a, [b])

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            block_triangular_derivative(COS, np.eye(3), [np.eye(2)])

    def test_importing_moikit_does_not_load_scipy(self):
        src = str(Path(moikit.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c",
                        "import sys, moikit; assert 'scipy' not in sys.modules"],
                       env=env, check=True)


def _conjugated(rng, eigenvalues):
    """A Hermitian matrix with the given spectrum in a random eigenbasis."""
    n = len(eigenvalues)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    A = (Q * np.asarray(eigenvalues)) @ Q.conj().T
    return 0.5 * (A + A.conj().T)


def _point_error(f, X):
    """Scaled distance of one 30-digit stencil point from ``mp.eighe`` at 40
    digits, both at the same matrix."""
    form = frechet._mp_form(f)
    with mp.workdps(frechet.EXTENDED_DPS):
        value = frechet._eighe_point(form, mp.matrix(X.tolist()))
    with mp.workdps(40):
        E, Q = mp.eighe(mp.matrix(X.tolist()))
        reference = Q * mp.diag([form(e) for e in E]) * Q.transpose_conj()
        return float(mp.mnorm(value - reference, "F") / (1 + mp.mnorm(reference, "F")))


def _eighe_stencil(f, a, dirs, dps):
    """The Richardson-combined central-difference stencil of
    :func:`finite_difference_derivative`, assembled here with every point
    diagonalized by ``mp.eighe`` at ``dps`` digits."""
    form = frechet._mp_form(f)
    k = len(dirs)
    h = 1e-4 * (1.0 + schatten_norm(a, math.inf))
    with mp.workdps(dps):
        A = mp.matrix(a.tolist())
        Bs = [mp.matrix(B.tolist()) for B in dirs]

        def central(step):
            out = mp.zeros(A.rows, A.cols)
            for index in np.ndindex((2,) * k):
                signs = [2 * j - 1 for j in index]
                X = A + sum((s * B for s, B in zip(signs, Bs)), mp.zeros(A.rows, A.cols)) * step
                E, Q = mp.eighe(X)
                out += math.prod(signs) * (Q * mp.diag([form(e) for e in E]) * Q.transpose_conj())
            return out / (2 * step) ** k

        coarse, fine = central(mp.mpf(h)), central(mp.mpf(h / 2.0))
        return np.array(((4 * fine - coarse) / 3).tolist(), dtype=complex)


class TestRefinedStencilPoint:
    """A point of the extended-precision stencil: ``f`` by its mpmath form at
    the eigenvalues of ``mp.eighe`` in ``EXTENDED_DPS`` digits."""

    CASES = {
        "n=1": (lambda rng: np.array([[0.7]]), "cos"),
        "cI": (lambda rng: 0.3 * np.eye(4), "cos"),
        "exact repeat": (lambda rng: np.array([[1.0, 0.5j, 0.0], [-0.5j, 1.0, 0.0],
                                               [0.0, 0.0, 1.5]]), "cos"),
        **{f"gap {g:g}": (lambda rng, g=g: _conjugated(rng, [-0.3, 0.1, 0.4, 0.4 + g, 0.9]),
                          "cos")
           for g in (1e-6, 1e-9, 1e-12, 1e-14)},
        "norm 30": (lambda rng: random_hermitian(rng, 5, norm=30.0), "exp"),
        "abs_pow straddling 0": (lambda rng: _conjugated(rng, [-0.2, -1e-5, 2e-5, 0.3]),
                                 "abs_pow"),
        "random n=6": (lambda rng: random_hermitian(rng, 6), "sin"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_40_digit_eighe(self, case):
        build, name = self.CASES[case]
        f = builtin_function(name, {"exponent": 3.5} if name == "abs_pow" else None)
        X = build(suite_rng(44, 0)).astype(complex)
        assert _point_error(f, X) < 1e-27

    def test_non_finite_value_raises(self):
        f = CallableFunction(np.cos, [lambda x: -np.sin(x)] * 3,
                             mp_evaluator=lambda x: mp.inf if x > 0 else mp.cos(x))
        rng = suite_rng(47, 0)
        a = random_hermitian(rng, 3, norm=0.7)
        dirs = [random_hermitian(rng, 3) for _ in range(3)]
        with pytest.raises(EvaluationDomain):
            finite_difference_derivative(f, a, dirs)

    def test_non_finite_value_on_a_repeated_eigenvalue_raises(self):
        # every stencil point is 0.3 I: the infinite value sits on a triple
        # eigenvalue, where its product with the eigenvectors reads NaN
        f = CallableFunction(np.cos, [lambda x: -np.sin(x)] * 3,
                             mp_evaluator=lambda x: mp.inf if x > 0 else mp.cos(x))
        with pytest.raises(EvaluationDomain):
            finite_difference_derivative(f, 0.3 * np.eye(3), [np.zeros((3, 3))] * 3)

    @pytest.mark.parametrize("f,k", [(COS, 3), (builtin_function("exp"), 3),
                                     (builtin_function("abs_pow", {"exponent": 3.5}), 3),
                                     (builtin_function("sin"), 4)])
    def test_stencil_matches_the_eighe_stencil(self, f, k):
        # the alternating sum over (2h)^k cancels about 4k digits, so the
        # 30-digit stencil reads about 5e-15 off the 40-digit one at k = 4
        rng = suite_rng(46, k)
        a = random_hermitian(rng, 4, norm=0.7)
        dirs = [random_hermitian(rng, 4, norm=1.0) for _ in range(k)]
        stencil = finite_difference_derivative(f, a, dirs)
        reference = _eighe_stencil(f, a, dirs, 40)
        assert np.linalg.norm(stencil - reference) / (1.0 + np.linalg.norm(reference)) < 1e-14


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

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_is_rejected_by_every_form(self, order):
        # R_0 is not defined: the direct form must not hand back R_1
        rng = suite_rng(44, 1)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        for form in (taylor_remainder_direct, taylor_remainder_moi,
                     taylor_remainder_integral):
            with pytest.raises(ValueError, match="order"):
                form(COS, order, a, b)

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
        integral = taylor_remainder_integral(monomial(2), 1, a, b)
        direct = taylor_remainder_direct(monomial(2), 1, a, b)
        np.testing.assert_allclose(integral, direct, atol=1e-11)
        np.testing.assert_allclose(integral, a @ b + b @ a + b @ b, atol=1e-11)

    def test_integral_form_cos(self):
        rng = suite_rng(49, 0)
        a = random_hermitian(rng, 3, norm=0.8)
        b = random_hermitian(rng, 3, norm=0.4)
        integral = taylor_remainder_integral(COS, 2, a, b)
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

    def test_bounds_the_mixed_base_integral(self):
        # the row is the operator-integral bound on the remainder's single
        # mixed-base integral, every slot exponent k p
        rng = suite_rng(54, 1)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4, norm=0.6)
        check = remainder_schatten_check(COS, 3, a, b, p=2.0).checks[0]
        assert check.name == "remainder bound (order 3, p=2)"
        assert check.lhs == schatten_norm(taylor_remainder_moi(COS, 3, a, b), 2.0)
        assert check.rhs == pytest.approx(schatten_norm(b, 6.0) ** 3 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("f", [Polynomial([0.0, 0.0, 1.0]), builtin_function("cos")],
                             ids=["polynomial", "builtin_cos"])
    def test_function_without_certified_bound_raises(self, f):
        rng = suite_rng(54, 2)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3, norm=0.5)
        with pytest.raises(ValueError, match="certified"):
            remainder_schatten_check(f, 2, a, b, p=1.0)


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
            moi_schatten_check(symbol, ops, [2.0])

    def test_symbol_without_bound_rejected(self):
        rng = suite_rng(58, 0)
        ops = MoiOperands.from_matrices(
            [random_hermitian(rng, 3) for _ in range(2)],
            [random_hermitian(rng, 3)])
        with pytest.raises(ValueError):
            moi_schatten_check(MoiSymbol(2, lambda lam: 1.0), ops, [1.0])

    def test_slot_exponents_whose_reciprocals_round_above_one(self):
        # nine reciprocals of 9 sum to 1 + 2^-52, as for a remainder bound
        # of order 9 at p = 1: the target is still p = 1
        assert sum([1.0 / 9.0] * 9) > 1.0
        rng = suite_rng(59, 0)
        ops = MoiOperands.from_matrices([random_hermitian(rng, 2)] * 10,
                                        [random_hermitian(rng, 2, norm=0.5)] * 9)
        report = moi_schatten_check(MoiSymbol.from_function(COS, 9), ops, [9.0] * 9)
        assert report.checks[0].name == "Hoelder bound (p=1)"
        assert report.passed
