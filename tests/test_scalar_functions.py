import math

import numpy as np
import pytest

from moikit import (
    CallableFunction,
    CoincidentNodes,
    InsufficientDerivatives,
    NodeTuple,
    Polynomial,
    SimplexQuadratureRule,
    WienerAtomic,
    builtin_function,
    divided_difference,
    divided_difference_batch,
    divided_difference_quadrature,
    divided_difference_recursive,
    divided_difference_sup_bound,
    function_from_spec,
    poly_divided_difference,
    wiener_divided_difference,
    wiener_iptp_bound,
    wiener_taylor_truncate,
)

COS = WienerAtomic([(1.0, 0.5), (-1.0, 0.5)])


def monomial(power):
    return Polynomial([0] * power + [1])


class TestPolynomial:
    def test_canonical_form_trims_trailing_zeros(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert p.degree == 1

    def test_zero_polynomial_has_degree_zero(self):
        assert Polynomial([]).degree == 0
        assert Polynomial([0, 0]).coeffs == (0j,)

    def test_derivative(self):
        p = Polynomial([1, 2, 3])  # 1 + 2x + 3x^2
        assert p.derivative().coeffs == (2, 6)
        assert p.derivative(2).coeffs == (6,)
        assert p.derivative(3).coeffs == (0j,)


class TestClosedForm:
    def test_cubic_two_nodes(self):
        # (2^3 - 1^3)/(2 - 1) = 7, also 1 + 2 + 4
        assert poly_divided_difference(monomial(3), NodeTuple([1, 2])) == pytest.approx(7)

    def test_square_three_nodes_is_one(self):
        for nodes in ([0.3, -1.2, 2.0], [5, 5, 5], [0, 1, 1]):
            val = poly_divided_difference(monomial(2), NodeTuple(nodes))
            assert val == pytest.approx(1)

    def test_order_above_degree_is_zero(self):
        assert poly_divided_difference(monomial(1), NodeTuple([0, 1, 2, 3])) == 0

    def test_works_at_coincident_nodes(self):
        p = Polynomial([0, 0, 1])
        assert poly_divided_difference(p, NodeTuple([3, 3])) == pytest.approx(6)


class TestRecursion:
    def test_matches_closed_form(self):
        p = monomial(3)
        assert divided_difference_recursive(p, [1, 2]) == pytest.approx(7)

    def test_confluent_uses_derivative(self):
        assert divided_difference_recursive(monomial(2), [3, 3]) == pytest.approx(6)

    def test_constant_vanishes(self):
        c = Polynomial([4.2])
        for k in (1, 2, 3):
            assert divided_difference_recursive(c, [0.0] * (k + 1)) == 0
            assert divided_difference_recursive(c, list(range(k + 1))) == pytest.approx(0)

    def test_coincident_without_derivatives_raises(self):
        f = CallableFunction(np.exp)  # no derivative evaluators
        with pytest.raises(CoincidentNodes):
            divided_difference_recursive(f, [1.0, 1.0])

    def test_plain_callable_at_repeated_nodes_raises(self):
        def f(x):  # a bare callable: no derivative attribute at all
            return np.sin(x) ** 2

        with pytest.raises(CoincidentNodes):
            divided_difference_batch(f, [[0.2, 0.2, 0.5]])
        with pytest.raises(CoincidentNodes):
            divided_difference(f, [0.2, 0.5, 0.2])
        with pytest.raises(CoincidentNodes):
            divided_difference_recursive(f, [0.2, 0.2])
        expected = (np.sin(0.5) ** 2 - np.sin(0.2) ** 2) / 0.3
        assert divided_difference(f, [0.2, 0.5]) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        p = Polynomial([0.3, -1, 2, 0.5])
        a = divided_difference_recursive(p, [0.1, 0.9, -1.4])
        b = divided_difference_recursive(p, [-1.4, 0.1, 0.9])
        assert a == pytest.approx(b, rel=1e-12)


class TestQuadrature:
    def test_exp_triple_zero(self):
        f = builtin_function("exp")
        val = divided_difference_quadrature(f, [0, 0, 0])
        assert val == pytest.approx(0.5, abs=1e-13)

    def test_cubic_matches_closed_form(self):
        f = CallableFunction(lambda x: x**3, [lambda x: 3 * x**2])
        val = divided_difference_quadrature(f, [1, 2])
        assert val == pytest.approx(7, abs=1e-12)

    def test_sin_difference_quotient(self):
        f = builtin_function("sin")
        val = divided_difference_quadrature(f, [0, np.pi])
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_derivatives(self):
        f = CallableFunction(np.exp, [np.exp])
        with pytest.raises(InsufficientDerivatives):
            divided_difference_quadrature(f, [0, 1, 2])


class TestWienerStrategy:
    def test_single_atom_at_zero_nodes(self):
        xi = 1.7
        f = WienerAtomic([(xi, 1.0)])
        for k in (1, 2, 3):
            val = wiener_divided_difference(f, [0.0] * (k + 1))
            assert val == pytest.approx((1j * xi) ** k / math.factorial(k), abs=1e-12)

    def test_cos_difference_quotient(self):
        val = wiener_divided_difference(COS, [0.0, np.pi])
        assert val == pytest.approx(-2 / np.pi, abs=1e-10)

    def test_empty_atoms(self):
        assert wiener_divided_difference(WienerAtomic([]), [0.3, 1.0]) == 0

    def test_matches_recursion(self):
        f = WienerAtomic([(0.8, 0.5 - 0.2j), (-1.3, 1.1j)])
        nodes = [0.2, -0.7, 1.1]
        a = wiener_divided_difference(f, nodes)
        b = divided_difference_recursive(f, nodes)
        assert a == pytest.approx(b, abs=1e-10)


def leibniz(f, g, nodes):
    """``sum_j f^[j](x_0..x_j) g^[k-j](x_j..x_k)``, each factor by the batched table."""
    k = len(nodes) - 1
    return sum(divided_difference_batch(f, [nodes[:j + 1]])[0]
               * divided_difference_batch(g, [nodes[j:]])[0] for j in range(k + 1))


class TestProductRule:
    # the Leibniz rule: (f g)^[k] splits the node tuple at every position

    def test_linear_times_linear(self):
        p1 = monomial(1)
        assert leibniz(p1, p1, [1, 2]) == pytest.approx(3)  # p2^[1](1,2)

    def test_unit_factor_is_identity(self):
        p = Polynomial([2, 0, 1, 4])
        one = Polynomial([1])
        nodes = [0.5, -0.5, 1.5]
        assert leibniz(p, one, nodes) == pytest.approx(
            poly_divided_difference(p, NodeTuple(nodes)))

    def test_linear_times_square(self):
        val = leibniz(monomial(1), monomial(2), [0, 1, 2])
        assert val == pytest.approx(3)  # p3^[2](0,1,2) = 0 + 1 + 2

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_product_of_builtins(self, k):
        # exp * cos against the table of the product itself, on nodes with
        # a near pair and an exact repeat
        f, g = builtin_function("exp"), builtin_function("cos")
        product = CallableFunction(
            lambda x: np.exp(x) * np.cos(x),
            [lambda x, m=m: sum(math.comb(m, i) * np.exp(x) * g.derivative(m - i)(x)
                                for i in range(m + 1)) for m in range(1, 13)])
        nodes = [0.3, 0.3 + 1e-6, -0.8, 1.1, -0.8][:k + 1]
        expected = divided_difference_batch(product, [nodes])[0]
        assert abs(leibniz(f, g, nodes) - expected) < 1e-12 * (1 + abs(expected))


class TestSupBound:
    def test_sin_first_order(self):
        f = builtin_function("sin")
        assert divided_difference_sup_bound(f, 1, np.pi) == pytest.approx(1.0)

    def test_square_second_order(self):
        assert divided_difference_sup_bound(monomial(2), 2, 5.0) == pytest.approx(1.0)

    def test_constant(self):
        assert divided_difference_sup_bound(Polynomial([3]), 1, 1.0) == 0


class TestWienerBounds:
    def test_cos_moments(self):
        assert COS.moment(0) == pytest.approx(1.0)
        assert COS.moment(2) == pytest.approx(1.0)
        assert WienerAtomic([]).moment(5) == 0

    def test_iptp_bounds(self):
        assert wiener_iptp_bound(COS, 2) == pytest.approx(0.5)
        f = WienerAtomic([(2.5, 1.0)])
        assert wiener_iptp_bound(f, 1) == pytest.approx(2.5)
        assert wiener_iptp_bound(f, 0) == pytest.approx(1.0)

    def test_moment_bound_dominates_sampled_values(self):
        rng = np.random.default_rng(np.random.Philox(key=5))
        f = WienerAtomic([(0.9, 0.4 - 0.2j), (-1.7, 0.3), (0.2, 1.1j)])
        for order in (1, 2, 3):
            bound = wiener_iptp_bound(f, order)
            for _ in range(200):
                nodes = rng.uniform(-3, 3, order + 1)
                value = divided_difference_recursive(f, nodes)
                assert abs(value) <= bound + 1e-9


class TestTaylorTruncation:
    def test_constant_function(self):
        trunc = wiener_taylor_truncate(WienerAtomic([(0.0, 1.0)]), 5)
        assert trunc.polynomial.coeffs == (1 + 0j,)

    def test_cos_degree_two(self):
        trunc = wiener_taylor_truncate(COS, 2)
        np.testing.assert_allclose(trunc.polynomial.coeffs, [1, 0, -0.5], atol=1e-15)

    def test_certified_tail_degree_ten(self):
        # independent summation of the exponential tail: sum_{m>=11} 1/m!
        trunc = wiener_taylor_truncate(COS, 10)
        assert trunc.tail_bound(1.0) == pytest.approx(2.7312660755642474e-8, rel=1e-12)

    def test_tail_dominates_grid_error(self):
        grid = np.linspace(-1, 1, 1001)
        for degree in range(2, 13):
            trunc = wiener_taylor_truncate(COS, degree)
            err = np.max(np.abs(np.cos(grid) - trunc.polynomial(grid)))
            assert err <= trunc.tail_bound(1.0)


class TestSimplexRule:
    @pytest.mark.parametrize("k", range(5))
    def test_total_mass(self, k):
        rule = SimplexQuadratureRule.gauss_legendre(k)
        assert rule.total_weight == pytest.approx(1 / math.factorial(k), rel=1e-13)

    def test_nodes_on_simplex(self):
        rule = SimplexQuadratureRule.gauss_legendre(3, points_per_axis=6)
        assert np.all(rule.nodes >= -1e-12)
        np.testing.assert_allclose(rule.nodes.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            SimplexQuadratureRule(1, [[0.5, 0.5]], [0.7])


class TestDispatcher:
    def test_routes_by_type(self):
        nodes = [0.2, 1.4]
        p = Polynomial([0, 1, 2])
        assert divided_difference(p, nodes) == pytest.approx(
            poly_divided_difference(p, NodeTuple(nodes)))
        f = builtin_function("cos")
        w = divided_difference(COS, nodes)
        c = divided_difference(f, nodes)
        assert w == pytest.approx(c, abs=1e-12)

    def test_stable_on_clustered_tuples(self):
        # the plain difference-quotient table loses all digits here (its
        # error at gap 1e-6, order 3 is O(10)); the dispatcher must not
        from mpmath import mp

        def reference(nodes):
            with mp.workdps(50):
                z = sorted(mp.mpf(x) for x in nodes)
                tab = [mp.cos(x) for x in z]
                for j in range(1, len(z)):
                    tab = [(tab[i + 1] - tab[i]) / (z[i + j] - z[i])
                           for i in range(len(z) - j)]
                return complex(tab[0])

        for k in (1, 2, 3):
            for gap in (1e-3, 1e-5, 1e-6):
                nodes = [0.7 + i * gap for i in range(k + 1)]
                val = divided_difference(COS, nodes)
                assert val == pytest.approx(reference(nodes), abs=1e-12)

    def test_clustered_routing_keeps_wide_spans_accurate(self):
        f = WienerAtomic([(5.0, 1.0)])
        nodes = [-4.0, -4.0 + 1e-6, 0.5, 4.0]
        from mpmath import mp
        with mp.workdps(60):
            z = sorted(mp.mpf(x) for x in nodes)
            tab = [mp.exp(1j * 5 * x) for x in z]
            for j in range(1, len(z)):
                tab = [(tab[i + 1] - tab[i]) / (z[i + j] - z[i])
                       for i in range(len(z) - j)]
            ref = complex(tab[0])
        assert divided_difference(f, nodes) == pytest.approx(ref, abs=1e-12)


class TestSpecFormat:
    def test_polynomial_spec(self):
        f = function_from_spec({"kind": "polynomial", "coeffs": [[1, 0], [0, 2]]})
        assert isinstance(f, Polynomial)
        assert f.coeffs == (1, 2j)

    def test_wiener_spec(self):
        f = function_from_spec({"kind": "wiener", "atoms": [[1.0, 0.5, 0], [-1.0, 0.5, 0]]})
        assert isinstance(f, WienerAtomic)
        assert f(0.0) == pytest.approx(1.0)

    def test_builtin_spec(self):
        f = function_from_spec({"kind": "builtin", "name": "exp", "params": {}})
        assert f(0.0) == pytest.approx(1.0)
        g = function_from_spec({"kind": "builtin", "name": "abs_pow",
                                "params": {"exponent": 1.5}})
        assert g(-2.0) == pytest.approx(2 ** 1.5)
        assert g.derivative()(4.0) == pytest.approx(1.5 * 2.0)

    def test_abs_pow_in_extended_precision(self):
        # |x|^(5/2) = x^2 sqrt|x| to 30 digits, where a double-precision
        # evaluation would agree to about 16
        from mpmath import mp

        g = builtin_function("abs_pow", {"exponent": 2.5})
        with mp.workdps(30):
            x = mp.mpf("-0.3")
            assert abs(g._eval_mp(x) - x ** 2 * mp.sqrt(-x)) <= mp.mpf("1e-30")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            function_from_spec({"kind": "mystery"})
