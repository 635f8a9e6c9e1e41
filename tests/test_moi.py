import numpy as np
import pytest

from moikit import (
    ArityMismatch,
    DimensionMismatch,
    MoiOperands,
    MoiSymbol,
    Polynomial,
    WienerAtomic,
    moi_evaluate,
    moi_opnorm_bound_check,
    moi_perturbation,
    moi_polynomial,
    moi_separated,
    moi_wiener,
)
from moikit.verify import (
    random_hermitian,
    random_hermitian_pair,
    suite_rng,
    verify_norm_bound,
)

COS = WienerAtomic([(1.0, 0.5), (-1.0, 0.5)])


def operands_for(rng, n, k, middles_norm=None):
    bases = [random_hermitian(rng, n) for _ in range(k + 1)]
    middles = [random_hermitian(rng, n, norm=middles_norm) for _ in range(k)]
    return MoiOperands.from_matrices(bases, middles)


class TestMoiEvaluate:
    def test_constant_symbol_is_identity_map(self):
        rng = suite_rng(1, 0)
        ops = operands_for(rng, 4, 1)
        value = moi_evaluate(MoiSymbol.constant(1.0, 2), ops)
        np.testing.assert_allclose(value, ops.middles[0], atol=1e-12)

    def test_first_slot_symbol_multiplies_left(self):
        rng = suite_rng(2, 0)
        ops = operands_for(rng, 4, 1)
        symbol = MoiSymbol(2, lambda lam: lam[0])
        value = moi_evaluate(symbol, ops)
        A1 = ops.decomps[0].source
        np.testing.assert_allclose(value, A1 @ ops.middles[0], atol=1e-10)

    def test_entrywise_formula_on_diagonal_base(self):
        # first divided difference of the square: value 3 at (1, 2)
        D = MoiOperands.from_matrices(
            [np.diag([1.0, 2.0])] * 2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
        symbol = MoiSymbol.from_function(Polynomial([0, 0, 1]), 1)
        value = moi_evaluate(symbol, D)
        np.testing.assert_allclose(value, [[0, 3], [3, 0]], atol=1e-12)

    def test_entrywise_formula_general(self):
        rng = suite_rng(3, 0)
        lam = np.sort(rng.uniform(-2, 2, 5))
        B = random_hermitian(rng, 5)
        ops = MoiOperands.from_matrices([np.diag(lam)] * 2, [B])
        f = COS
        symbol = MoiSymbol.from_function(f, 1)
        value = moi_evaluate(symbol, ops)
        from moikit import divided_difference
        expected = np.array([[complex(divided_difference(f, [a, b])) for b in lam]
                             for a in lam]) * B
        np.testing.assert_allclose(value, expected, atol=1e-10)

    def test_arity_mismatch(self):
        rng = suite_rng(4, 0)
        ops = operands_for(rng, 3, 2)
        with pytest.raises(ArityMismatch):
            moi_evaluate(MoiSymbol.constant(1.0, 2), ops)

    def test_multilinearity(self):
        rng = suite_rng(5, 0)
        ops = operands_for(rng, 4, 2)
        symbol = MoiSymbol.from_function(COS, 2)
        alpha = 0.7 - 0.3j
        b_new = random_hermitian(rng, 4)
        lhs = moi_evaluate(symbol, MoiOperands(
            ops.decomps, (alpha * ops.middles[0] + b_new, ops.middles[1])))
        rhs = alpha * moi_evaluate(symbol, ops) + moi_evaluate(
            symbol, MoiOperands(ops.decomps, (b_new, ops.middles[1])))
        scale = 1 + np.linalg.norm(rhs)
        assert np.linalg.norm(lhs - rhs) / scale < 1e-9

    def test_symbol_linearity(self):
        rng = suite_rng(6, 0)
        ops = operands_for(rng, 3, 1)
        s1 = MoiSymbol.from_function(Polynomial([0, 1, 0.5]), 1)
        s2 = MoiSymbol.from_function(COS, 1)
        alpha = 1.3
        combo = MoiSymbol(2, lambda lam: alpha * s1.evaluator(lam) + s2.evaluator(lam))
        lhs = moi_evaluate(combo, ops)
        rhs = alpha * moi_evaluate(s1, ops) + moi_evaluate(s2, ops)
        assert np.linalg.norm(lhs - rhs) / (1 + np.linalg.norm(rhs)) < 1e-9


class TestSeparated:
    def test_all_ones_gives_middle_product(self):
        rng = suite_rng(7, 0)
        ops = operands_for(rng, 3, 2)
        one = Polynomial([1])
        value = moi_separated([(one, one, one)], [1.0], ops)
        np.testing.assert_allclose(value, ops.middles[0] @ ops.middles[1], atol=1e-11)

    def test_single_slot_identity_factor(self):
        rng = suite_rng(8, 0)
        ops = operands_for(rng, 3, 1)
        ident = Polynomial([0, 1])
        one = Polynomial([1])
        value = moi_separated([(ident, one)], [1.0], ops)
        np.testing.assert_allclose(value, ops.decomps[0].source @ ops.middles[0],
                                   atol=1e-11)

    def test_sum_symbol_two_terms(self):
        rng = suite_rng(9, 0)
        ops = operands_for(rng, 4, 1)
        ident = Polynomial([0, 1])
        one = Polynomial([1])
        separated = moi_separated([(ident, one), (one, ident)], [1.0, 1.0], ops)
        symbol = MoiSymbol(2, lambda lam: lam[0] + lam[1])
        direct = moi_evaluate(symbol, ops)
        np.testing.assert_allclose(separated, direct, atol=1e-9)
        A1, A2 = ops.decomps[0].source, ops.decomps[1].source
        np.testing.assert_allclose(
            separated, A1 @ ops.middles[0] + ops.middles[0] @ A2, atol=1e-9)


class TestMoiPolynomial:
    def test_square_order_one(self):
        rng = suite_rng(10, 0)
        A = random_hermitian(rng, 4)
        B = random_hermitian(rng, 4)
        ops = MoiOperands.from_matrices([A, A], [B])
        np.testing.assert_allclose(moi_polynomial(2, ops), A @ B + B @ A, atol=1e-12)

    def test_power_equal_to_order(self):
        rng = suite_rng(11, 0)
        ops = operands_for(rng, 3, 2)
        np.testing.assert_allclose(moi_polynomial(2, ops),
                                   ops.middles[0] @ ops.middles[1], atol=1e-12)

    def test_power_below_order_is_zero(self):
        rng = suite_rng(12, 0)
        ops = operands_for(rng, 3, 2)
        np.testing.assert_allclose(moi_polynomial(1, ops), np.zeros((3, 3)))

    def test_matches_direct_sum(self):
        rng = suite_rng(13, 0)
        for k in (1, 2, 3):
            ops = operands_for(rng, 4, k)
            for power in (k, k + 2, 6):
                symbol = MoiSymbol.from_function(Polynomial([0] * power + [1]), k)
                direct = moi_evaluate(symbol, ops)
                closed = moi_polynomial(power, ops)
                scale = 1 + np.linalg.norm(closed)
                assert np.linalg.norm(direct - closed) / scale < 1e-8


class TestMoiWiener:
    def test_empty_atoms_zero(self):
        rng = suite_rng(14, 0)
        ops = operands_for(rng, 3, 1)
        np.testing.assert_allclose(moi_wiener(WienerAtomic([]), ops),
                                   np.zeros((3, 3)))

    def test_zero_frequency_atom_zero(self):
        rng = suite_rng(15, 0)
        ops = operands_for(rng, 3, 2)
        np.testing.assert_allclose(moi_wiener(WienerAtomic([(0.0, 2.0)]), ops),
                                   np.zeros((3, 3)), atol=1e-14)

    def test_cos_entrywise_value(self):
        A = np.diag([0.0, np.pi])
        B = np.ones((2, 2))
        ops = MoiOperands.from_matrices([A, A], [B])
        value = moi_wiener(COS, ops)
        assert value[0, 1] == pytest.approx(-2 / np.pi, abs=1e-9)

    def test_matches_direct_sum(self):
        rng = suite_rng(16, 0)
        for k in (1, 2):
            ops = operands_for(rng, 4, k)
            f = WienerAtomic([(0.9, 0.4 + 0.1j), (-1.4, 0.8)])
            osc = moi_wiener(f, ops)
            direct = moi_evaluate(MoiSymbol.from_function(f, k), ops)
            scale = 1 + np.linalg.norm(direct)
            assert np.linalg.norm(osc - direct) / scale < 1e-8


class TestPerturbation:
    def test_equal_points_vanish(self):
        rng = suite_rng(17, 0)
        A = random_hermitian(rng, 4)
        report = moi_perturbation(COS, A, A.copy())
        assert report.passed
        assert report.checks[0].lhs < 1e-12

    def test_square_is_algebraic_identity(self):
        rng = suite_rng(18, 0)
        A, B = random_hermitian_pair(rng, 5)
        report = moi_perturbation(Polynomial([0, 0, 1]), A, B)
        assert report.passed
        assert report.checks[0].residual < 1e-12

    def test_cos_seeded_pair(self):
        rng = suite_rng(19, 0)
        A, B = random_hermitian_pair(rng, 5)
        assert moi_perturbation(COS, A, B).passed


class TestNormBoundCheck:
    def test_constant_symbol(self):
        rng = suite_rng(20, 0)
        ops = operands_for(rng, 4, 1)
        report = moi_opnorm_bound_check(MoiSymbol.constant(1.0, 2), ops, probes=20)
        check = report.checks[0]
        assert report.passed
        assert check.lhs == pytest.approx(1.0, abs=1e-6)  # identity map on B
        assert check.rhs == pytest.approx(4.0)

    def test_probe_is_the_exact_operator_norm(self):
        # a constant first-order symbol maps each unit-norm direction B to c B
        ops = operands_for(suite_rng(22, 0), 6, 1)
        c = -2.5 + 1.0j
        check = moi_opnorm_bound_check(MoiSymbol.constant(c, 2), ops, probes=5).checks[0]
        assert check.lhs == pytest.approx(abs(c), rel=1e-13)

    def test_square_symbol_on_two_point_spectrum(self):
        D = MoiOperands.from_matrices(
            [np.diag([1.0, 2.0])] * 2, [np.eye(2)])
        symbol = MoiSymbol.from_function(Polynomial([0, 0, 1]), 1)
        report = moi_opnorm_bound_check(symbol, D, probes=100)
        check = report.checks[0]
        # grid max of |x + y| over {1,2}^2 is 4, dimension factor 2
        assert check.rhs == pytest.approx(8.0)
        assert check.lhs <= check.rhs
        assert report.passed

    def test_zero_symbol(self):
        rng = suite_rng(21, 0)
        ops = operands_for(rng, 3, 2)
        report = moi_opnorm_bound_check(MoiSymbol.constant(0.0, 3), ops, probes=3)
        assert report.passed
        assert report.checks[0].lhs == 0.0

    def test_verify_row_shows_the_margin_of_nonzero_bounds(self):
        # seed 42 draws three polynomials of degree below k (bound 0, probe
        # 0); they get their own row, so the bound row reads a true margin
        bound_row, vanishing_row = verify_norm_bound(42).checks
        assert bound_row.name == "probe estimate vs n^k bound (97 cases)"
        assert bound_row.lhs < 0
        assert vanishing_row.name == "vanishing symbol gives a zero integral (3 cases)"
        assert vanishing_row.lhs == 0.0 and vanishing_row.passed


class TestOperandValidation:
    def test_dimension_mismatch(self):
        rng = suite_rng(22, 0)
        with pytest.raises(DimensionMismatch):
            MoiOperands.from_matrices(
                [random_hermitian(rng, 3), random_hermitian(rng, 4)],
                [random_hermitian(rng, 3)])

    def test_requires_order_one(self):
        rng = suite_rng(23, 0)
        with pytest.raises(DimensionMismatch):
            MoiOperands.from_matrices([random_hermitian(rng, 3)], [])
