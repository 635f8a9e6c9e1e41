import math

import numpy as np
import pytest
from mpmath import mp

from moikit import (
    CallableFunction,
    CoincidentNodes,
    EvaluationDomain,
    InsufficientDerivatives,
    Polynomial,
    WienerAtomic,
    builtin_function,
    divided_difference,
    divided_difference_batch,
    divided_difference_quadrature,
    divided_difference_recursive,
    divided_difference_sup_bound,
    function_from_spec,
    poly_divided_difference,
    simplex_rule,
    wiener_divided_difference,
    wiener_iptp_bound,
    wiener_taylor_truncate,
)
from moikit import scalar_functions
from moikit.scalar_functions import SERIES_DEGREE, divided_difference_mp
from moikit.verify import verify_divided_differences

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

    @pytest.mark.parametrize("coeffs", [
        [0.3 - 1.2j, 2.0, -0.7 + 0.1j, 1.5, 0.25j, -0.9, 0.4, 1.1 - 0.6j, 0.8],
        [1.0, -2.0, 0.5],
        [2.5 - 1.0j],
        [0.0],
    ], ids=["degree 8", "real quadratic", "constant", "zero"])
    @pytest.mark.parametrize("x", [
        np.linspace(-2.0, 2.0, 101),
        np.linspace(-1.5, 1.0, 12).reshape(3, 4) + 1j * np.linspace(0.5, -0.5, 12).reshape(3, 4),
        np.array(-0.75),
        0.6,
        -3,
        0.2 - 0.4j,
    ], ids=["real array", "complex array", "0-d array", "float", "int", "complex"])
    def test_call_is_polyval_bit_for_bit(self, coeffs, x):
        p = Polynomial(coeffs)
        value = p(x)
        expected = np.polynomial.polynomial.polyval(x, np.asarray(p.coeffs))
        assert type(value) is type(expected)
        assert np.shape(value) == np.shape(expected)
        assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()


class TestRealMarker:
    @pytest.mark.parametrize("f, real", [
        (builtin_function("exp"), True),
        (builtin_function("sin"), True),
        (builtin_function("cos"), True),
        (builtin_function("abs_pow", {"exponent": 2.5}), True),
        (Polynomial([1.0, -2.5, 0.5]), True),
        (Polynomial([1.0 + 0j, 2.0, 0.5 - 0j]), True),
        (Polynomial([1.0, 2.0j]), False),
        (COS, True),
        (WienerAtomic([(1.0, -0.5j), (-1.0, 0.5j)]), True),
        (WienerAtomic([(0.0, 2.0), (0.7, 1 + 2j), (-0.7, 1 - 2j)]), True),
        (WienerAtomic([(0.0, 2.0j)]), False),
        (WienerAtomic([(1.0, 1.0)]), False),
        (WienerAtomic([(1.0, 0.5j), (-1.0, 0.5j)]), False),
        (WienerAtomic([(1.0, 0.5), (-2.0, 0.5)]), False),
        (CallableFunction(np.cos, [lambda x: -np.sin(x)]), False),
    ], ids=["exp", "sin", "cos", "abs_pow", "real_polynomial", "zero_imaginary_parts",
            "complex_polynomial", "paired_cos", "paired_sin", "zero_frequency_and_pair",
            "zero_frequency_complex", "single_atom", "unconjugated_pair",
            "unpaired_frequencies", "user_callable"])
    def test_marker(self, f, real):
        assert f.is_real is real


class TestClosedForm:
    def test_cubic_two_nodes(self):
        # (2^3 - 1^3)/(2 - 1) = 7, also 1 + 2 + 4
        assert poly_divided_difference(monomial(3), [1, 2]) == pytest.approx(7)

    def test_square_three_nodes_is_one(self):
        for nodes in ([0.3, -1.2, 2.0], [5, 5, 5], [0, 1, 1]):
            val = poly_divided_difference(monomial(2), nodes)
            assert val == pytest.approx(1)

    def test_order_above_degree_is_zero(self):
        assert poly_divided_difference(monomial(1), [0, 1, 2, 3]) == 0

    def test_works_at_coincident_nodes(self):
        p = Polynomial([0, 0, 1])
        assert poly_divided_difference(p, [3, 3]) == pytest.approx(6)


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

    @pytest.mark.parametrize("k, f", [
        *((k, builtin_function("exp")) for k in range(5)),
        *((k, WienerAtomic([(1.5, 0.3 - 0.4j), (-0.7, 1.1)])) for k in range(5))],
        ids=[*map(str, range(5)), *(f"wiener-{k}" for k in range(5))])
    def test_nested_points_follow_the_rule(self, k, f):
        # the nested points, weighted by the 16-point rule, give its own sum
        points, weights = simplex_rule(k)
        nodes = np.random.default_rng(k).uniform(-2.0, 2.0, k + 1)
        expected = weights @ f.derivative(k)(points @ nodes)
        val = divided_difference_quadrature(f, nodes)
        assert val == pytest.approx(expected, rel=1e-14, abs=0)

    @pytest.mark.parametrize("k", range(5))
    def test_polynomial_rule_is_sized_to_the_degree(self, k, monkeypatch):
        # ceil((deg p^(k) + k) / 2) points per axis: exact, at m^k points
        sizes = []
        evaluate = scalar_functions._evaluate
        monkeypatch.setattr(scalar_functions, "_evaluate",
                            lambda f, points: sizes.append(np.size(points))
                            or evaluate(f, points))
        rng = np.random.default_rng(10 + k)
        for degree in range(13):
            p = Polynomial(rng.standard_normal(degree + 1)
                           + 1j * rng.standard_normal(degree + 1))
            nodes = rng.uniform(-2.0, 2.0, k + 1)
            val = divided_difference_quadrature(p, nodes)
            expected = poly_divided_difference(p, nodes)
            if degree < k:
                assert val == 0 and expected == 0
            else:
                assert abs(val - expected) <= 1e-13 * abs(expected)
            m = _sized_points(degree, k)
            assert sizes.pop() == m**k
            if k and degree >= k and m > 1:
                # one point fewer per axis is not exact: the size is tight
                fewer = _tensor_gauss(p.derivative(k), nodes, m - 1)
                assert abs(fewer - expected) > 1e-13 * abs(expected)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_high_degree_stays_on_the_16_point_rule(self, k):
        # deg p^(k) + k > 32: no rule of at most 16 points is exact, and the
        # polynomial takes the rule of every other integrand
        p = Polynomial(np.random.default_rng(k).standard_normal(34))
        wrapped = CallableFunction(p, [p.derivative(j) for j in range(1, k + 1)])
        nodes = np.linspace(-1.0, 1.0, k + 1)
        a = divided_difference_quadrature(p, nodes)
        b = divided_difference_quadrature(wrapped, nodes)
        assert a.real.hex() == b.real.hex() and a.imag.hex() == b.imag.hex()

    def test_insufficient_derivatives(self):
        f = CallableFunction(np.exp, [np.exp])
        with pytest.raises(InsufficientDerivatives):
            divided_difference_quadrature(f, [0, 1, 2])

    def test_plain_callable_has_no_derivatives(self):
        with pytest.raises(InsufficientDerivatives):
            divided_difference_quadrature(lambda x: x**2, [0.0, 1.0])


def _sized_points(degree, k):
    """Points per axis that make the simplex rule exact on a degree-``degree``
    polynomial's k-th derivative."""
    return min(16, max(1, math.ceil((max(degree - k, 0) + k) / 2)))


def _tensor_gauss(g, nodes, m):
    """Simplex integral of ``g(t . nodes)`` by m Gauss-Legendre points per
    cube axis, the cube-to-simplex map and its Jacobian spelled out per point."""
    u, w = np.polynomial.legendre.leggauss(m)
    u, w = 0.5 * (u + 1.0), 0.5 * w
    k = len(nodes) - 1
    total = 0j
    for index in np.ndindex((m,) * k):
        rest, t, weight = 1.0, 0.0, 1.0
        for j, i in enumerate(index):
            t += rest * u[i] * nodes[j]
            weight *= w[i] * (1.0 - u[i]) ** (k - 1 - j)
            rest *= 1.0 - u[i]
        total += weight * g(t + rest * nodes[k])
    return total


def _homogeneous_recurrence(nodes, max_degree):
    h = np.zeros((max_degree + 1,) + nodes.shape[1:])
    h[0] = 1.0
    for x in nodes:
        for m in range(1, max_degree + 1):
            h[m] = h[m] + x * h[m - 1]
    return h


def _ascending_recurrence(matrix, stacked):
    out = matrix[:, :1] * stacked[0]
    for q in range(1, len(stacked)):
        out += matrix[:, q:q + 1] * stacked[q]
    return out


class TestSeriesHelpers:
    # the running sums against the explicit recurrences, bit for bit
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("rows", [1, 13, 1000])
    def test_homogeneous_sums_are_the_recurrence(self, k, rows):
        nodes = np.random.default_rng(rows + k).uniform(-1.0, 1.0, (k + 1, rows))
        h = scalar_functions._homogeneous_sums(nodes, SERIES_DEGREE)
        assert h.tobytes() == _homogeneous_recurrence(nodes, SERIES_DEGREE).tobytes()
        one = scalar_functions._homogeneous_sums(tuple(nodes[:, 0]), 5)
        assert one.tobytes() == _homogeneous_recurrence(nodes[:, 0], 5).tobytes()

    @pytest.mark.parametrize("seed", [7, 42])
    def test_tuple_sums_are_the_array_sums_on_the_suite_nodes(self, seed, monkeypatch):
        # every node tuple the divided-differences suite gives the closed
        # form, through the plain-float and the array recurrence, bit for bit
        calls, tuple_sums = [], scalar_functions._tuple_homogeneous_sums

        def recorded(nodes, max_degree):
            calls.append((nodes, max_degree))
            return tuple_sums(nodes, max_degree)

        monkeypatch.setattr(scalar_functions, "_tuple_homogeneous_sums", recorded)
        verify_divided_differences(seed)
        assert len(calls) > 100
        for nodes, max_degree in calls:
            plain = np.array(tuple_sums(nodes, max_degree))
            column = scalar_functions._homogeneous_sums(np.array(nodes)[:, None], max_degree)
            assert plain.tobytes() == column[:, 0].tobytes(), nodes

    @pytest.mark.parametrize("rows", [1, 13, 1000])
    def test_ascending_product_is_the_recurrence(self, rows):
        rng = np.random.default_rng(rows)
        matrix = rng.standard_normal((SERIES_DEGREE + 1, SERIES_DEGREE + 1))
        stacked = rng.standard_normal((SERIES_DEGREE + 1, rows)) \
            + 1j * rng.standard_normal((SERIES_DEGREE + 1, rows))
        value = scalar_functions._ascending_product(matrix, stacked)
        assert value.tobytes() == _ascending_recurrence(matrix, stacked).tobytes()


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

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_is_the_quadrature_of_the_kth_derivative(self, k):
        # f^(k) of an atomic sum is an atomic sum: one simplex rule, one sum
        rng = np.random.Generator(np.random.Philox(key=k))
        f = WienerAtomic(zip(rng.uniform(-3, 3, 4), rng.standard_normal(4)
                             + 1j * rng.standard_normal(4)))
        for nodes in ([0.3] * (k + 1), rng.uniform(-2, 2, k + 1).tolist()):
            a = wiener_divided_difference(f, nodes)
            b = divided_difference_quadrature(f, nodes)
            assert a.real.hex() == b.real.hex() and a.imag.hex() == b.imag.hex()


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
            poly_divided_difference(p, nodes))

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

    def test_plain_callable_has_no_derivatives(self):
        with pytest.raises(InsufficientDerivatives):
            divided_difference_sup_bound(lambda x: x**2, 1, 1.0)


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
        weights = simplex_rule(k)[1]
        assert weights.sum() == pytest.approx(1 / math.factorial(k), rel=1e-13)
        # every rule the quadrature sizes to a polynomial integrand
        for m in range(_sized_points(0, k), 17):
            nodes, weights = simplex_rule(k, m)
            assert nodes.shape == (m**k, k + 1) and weights.shape == (m**k,)
            assert weights.sum() == pytest.approx(1 / math.factorial(k), rel=1e-13)

    def test_nodes_on_simplex(self):
        nodes = simplex_rule(3)[0]
        assert np.all(nodes >= -1e-12)
        np.testing.assert_allclose(nodes.sum(axis=1), 1.0, atol=1e-12)

    def test_read_only_and_built_once(self):
        assert simplex_rule(2) is simplex_rule(2, 16)
        for k, m in [(0, 16), (2, 3), (3, 16)]:
            nodes, weights = simplex_rule(k, m)
            assert not nodes.flags.writeable and not weights.flags.writeable
            again = simplex_rule(k, m)
            assert again[0] is nodes and again[1] is weights
            with pytest.raises(ValueError, match="read-only"):
                weights[0] = 1.0


class TestDispatcher:
    def test_routes_by_type(self):
        nodes = [0.2, 1.4]
        p = Polynomial([0, 1, 2])
        assert divided_difference(p, nodes) == pytest.approx(
            poly_divided_difference(p, nodes))
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

    @pytest.mark.parametrize("spec", [
        [1, 2],
        "polynomial",
        {"kind": "polynomial", "coeffs": [1, 2]},
        {"kind": "polynomial", "coeffs": [["a", 0]]},
        {"kind": "polynomial", "coeffs": [[1, 0, 0]]},
        {"kind": "wiener", "atoms": [[1.0, 0.5]]},
        {"kind": "wiener", "atoms": [[[1.0], 0.5, 0.0]]},
        {"kind": "wiener", "atoms": 3},
        {"kind": "builtin", "name": "exp", "params": [1, 2]},
        {"kind": "polynomial"},
        {"kind": "wiener"},
        {"kind": "builtin"},
        {"kind": "builtin", "name": "abs_pow"},
        {"kind": "builtin", "name": "exp", "params": {"exponent": 2}},
        {"kind": "builtin", "name": "exp", "params": {"max_ordr": 3}},
        {"kind": "builtin", "name": "abs_pow", "params": {"exponent": math.inf}},
        {"kind": "builtin", "name": "abs_pow", "params": {"exponent": math.nan}},
        {"kind": "polynomial", "coeffs": [[1, 0], [math.nan, 0]]},
        {"kind": "polynomial", "coeffs": [[1, -math.inf]]},
        {"kind": "wiener", "atoms": [[math.inf, 0.5, 0.0]]},
        {"kind": "wiener", "atoms": [[1.0, 0.5, math.nan]]},
    ])
    def test_malformed_spec_is_a_value_error(self, spec):
        with pytest.raises(ValueError):
            function_from_spec(spec)

    @pytest.mark.parametrize("spec, named", [
        ({"kind": "builtin", "name": "abs_pow", "params": {"exponent": math.inf}},
         "exponent must be finite, got inf"),
        ({"kind": "polynomial", "coeffs": [[1, 0], [math.nan, 0]]},
         r"coefficient \(nan\+0j\) is not finite"),
        ({"kind": "wiener", "atoms": [[0.5, 1.0, 0.0], [math.inf, 0.5, 0.0]]},
         r"atom \(frequency inf, weight \(0\.5\+0j\)\) is not finite"),
        ({"kind": "wiener", "atoms": [[1.0, 0.5, -math.inf]]},
         r"atom \(frequency 1\.0, weight \(0\.5-infj\)\) is not finite"),
    ], ids=["exponent", "coefficient", "frequency", "weight"])
    def test_non_finite_number_is_named(self, spec, named):
        # JSON reads Infinity and NaN; the spec error names the number, not
        # an eigenvalue at which the function later fails
        with pytest.raises(ValueError, match=named):
            function_from_spec(spec)


class TestExtendedPrecisionForm:
    # the 50-digit references evaluate in mpmath or not at all: a silent
    # double-precision fallback would pass rounding off as a reference
    NODES = [0.3 + j * 1e-7 for j in range(4)]

    def test_callable_without_mp_form_raises(self):
        f = CallableFunction(np.cos, [lambda x: -np.sin(x)] * 3)
        with pytest.raises(EvaluationDomain):
            f._eval_mp(0.3)
        with pytest.raises(EvaluationDomain):
            divided_difference_mp(f, self.NODES)

    def test_plain_callable_raises(self):
        with pytest.raises(EvaluationDomain):
            divided_difference_mp(lambda x: np.cos(x), self.NODES)

    def test_builtin_cos_matches_the_third_derivative(self):
        value = divided_difference_mp(builtin_function("cos"), self.NODES)
        assert value == pytest.approx(np.sin(0.3 + 1.5e-7) / 6, rel=1e-9)

    def test_working_precision_covers_the_gaps(self):
        # six levels of 1e-7 gaps at |x| = 20 cancel about 50 digits, all that
        # a fixed 50-digit recursion would carry
        nodes = [20.0 + j * 1e-7 for j in range(7)]
        with mp.workdps(150):
            z = [mp.mpf(x) for x in nodes]
            table = [mp.exp(x) for x in z]
            for j in range(1, len(z)):
                table = [(table[i + 1] - table[i]) / (z[i + j] - z[i])
                         for i in range(len(z) - j)]
            reference = complex(table[0])
        value = divided_difference_mp(builtin_function("exp"), nodes)
        assert abs(value - reference) / (1.0 + abs(reference)) < 1e-12
