"""The eigenbasis MOI engine against the scalar routes and the oracle routes.

The batched divided difference must agree row by row with the scalar route
function that each row is routed to, and the contracted integral must agree
with the projection-sandwich sum it replaces and with the separated,
oscillatory and monomial evaluations, on spectra with exact repeats, gaps at
the clustering threshold, n = 1 and mixed bases.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from moikit import (
    CallableFunction,
    DerivativeRequest,
    MoiOperands,
    MoiSymbol,
    Polynomial,
    WienerAtomic,
    builtin_function,
    divided_difference,
    divided_difference_batch,
    divided_difference_quadrature,
    divided_difference_recursive,
    matrix_function_derivative,
    moi_evaluate,
    moi_polynomial,
    moi_separated,
    moi_wiener,
    poly_divided_difference,
    wiener_divided_difference,
)
from moikit import scalar_functions
from moikit.errors import CoincidentNodes, DimensionMismatch
from moikit.scalar_functions import COINCIDENCE_TOL_FACTOR, WIENER_QUADRATURE_GAP, default_rule
from moikit.verify import random_hermitian, suite_rng

WIENER = WienerAtomic([(1.0, 0.5), (-1.0, 0.5), (2.3, 0.2 - 0.1j)])
# one function per route of the dispatcher; exp with two declared derivatives
# takes the recursion once the order exceeds two
ROUTES = {
    "closed_form": Polynomial([0.3, -1.0, 0.5, 0.25, -0.7, 0.1, 0.9, -0.2]),
    "wiener": WIENER,
    "quadrature": builtin_function("exp"),
    "recursion": builtin_function("exp", {"max_order": 2}),
}


def scaled(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)) / (1.0 + np.abs(np.asarray(b)))


def route_reference(route, f, row):
    """The scalar route function that ``row`` must be sent to, evaluated there."""
    k = len(row) - 1
    if route == "closed_form":
        return poly_divided_difference(f, row)
    if k == 0:
        return divided_difference_recursive(f, row)
    if route == "wiener":
        s = np.sort(row)
        if np.diff(s).min() < WIENER_QUADRATURE_GAP * (1.0 + np.abs(s).max()):
            points = scalar_functions._wiener_points(f, k, s[-1] - s[0])
            return wiener_divided_difference(f, row, default_rule(k, int(points)))
        return divided_difference_recursive(f, row)
    if f.max_order >= k:
        return divided_difference_quadrature(f, row)
    return divided_difference_recursive(f, row)


# a merge width well above the default coincidence tolerance: rows whose
# nodes the caller has merged to exact repeats before asking for f^[k]
MERGE_WIDTH = 0.012


def merge_within(row, width):
    """Sort ``row`` and snap each run of nodes at most ``width`` apart to its mean."""
    z = np.sort(row)
    groups = [[z[0]]]
    for x in z[1:]:
        if x - groups[-1][-1] <= width:
            groups[-1].append(x)
        else:
            groups.append([x])
    return np.concatenate([np.full(len(g), np.mean(g)) for g in groups])


def node_rows(rng, k):
    """Random rows, exact repeats, a near-coincident pair, rows at the Wiener gap."""
    rows = list(rng.uniform(-1.5, 1.5, (6, k + 1)))
    for row in rows[:3]:
        # at most three equal nodes: the recursion route has two derivatives
        repeated = row.copy()
        repeated[:3] = row[0]
        rows.append(repeated)
    if k:
        # two nodes half the default coincidence tolerance apart: the
        # recursion snaps them
        merged = 0.1 + 0.5 * np.arange(k + 1)
        merged[0] = merged[1] - 0.5 * COINCIDENCE_TOL_FACTOR * (1.0 + np.abs(merged).max())
        rows.append(merged)
        for x0 in (0.3, -1.2):
            for side in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
                row = x0 + 0.5 * np.arange(k + 1)
                row[1] = row[0] + WIENER_QUADRATURE_GAP * (1.0 + np.abs(row).max()) * side
                rows.append(row)
    return np.array(rows)


class TestBatchedDividedDifference:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("merge_width", [None, MERGE_WIDTH])
    def test_matches_scalar_dispatcher(self, route, k, merge_width):
        # each row must match the route function it is sent to, and the
        # scalar dispatcher, which evaluates it alone in a batch of one
        f = ROUTES[route]
        rows = node_rows(suite_rng(90 + k, 0), k)
        if merge_width is not None:
            rows = np.array([merge_within(row, merge_width) for row in rows])
        batch = divided_difference_batch(f, rows)
        reference = [route_reference(route, f, row) for row in rows]
        scalar = [divided_difference(f, row) for row in rows]
        assert batch.shape == (len(rows),)
        assert scaled(batch, reference).max() < 1e-13
        assert scaled(batch, scalar).max() < 1e-13

    def test_wiener_quadrature_only_below_the_gap(self, monkeypatch):
        # at the threshold the two routes agree to ~1e-14, so values cannot
        # tell them apart: record which rows the dispatcher sends to quadrature
        t = WIENER_QUADRATURE_GAP * 2.0      # (1 + max|x|) = 2 on these rows
        rows = np.array([[0.0, np.nextafter(t, 0.0), 1.0], [0.0, t, 1.0],
                         [0.0, np.nextafter(t, 1.0), 1.0]])
        sent = []
        route = scalar_functions._wiener_quadrature_rows
        monkeypatch.setattr(scalar_functions, "_wiener_quadrature_rows",
                            lambda f, r: sent.extend(map(tuple, r)) or route(f, r))
        divided_difference_batch(WIENER, rows)
        assert sent == [tuple(rows[0])]
        sent.clear()
        for row in rows:
            divided_difference(WIENER, row)
        assert sent == [tuple(rows[0])]

    def test_generic_callable_per_row(self):
        # no declared derivatives: every row takes the recursion
        def f(x):
            return np.sin(x) ** 2

        rows = suite_rng(95, 0).uniform(-1, 1, (7, 3))
        batch = divided_difference_batch(f, rows)
        recursion = [divided_difference_recursive(f, row) for row in rows]
        assert scaled(batch, recursion).max() < 1e-13
        # a repeated node needs the derivative that the recursion cannot get
        with pytest.raises(CoincidentNodes):
            divided_difference_batch(CallableFunction(np.exp), [[0.2, 0.2, 0.5]])

    def test_symmetric_rows_share_one_value(self):
        rows = np.array([[0.1, 0.7, -0.4], [0.7, -0.4, 0.1], [-0.4, 0.1, 0.7]])
        for f in ROUTES.values():
            batch = divided_difference_batch(f, rows)
            assert batch[0] == batch[1] == batch[2]

    def test_empty_and_malformed(self):
        assert divided_difference_batch(WIENER, np.zeros((0, 3))).shape == (0,)
        rows = node_rows(suite_rng(96, 0), 2)
        assert np.all(divided_difference_batch(WienerAtomic([]), rows) == 0)
        with pytest.raises(ValueError):
            divided_difference_batch(WIENER, np.zeros(3))


def hermitian_with(rng, eigenvalues):
    n = len(eigenvalues)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    a = q @ np.diag(eigenvalues).astype(complex) @ q.conj().T
    return 0.5 * (a + a.conj().T)


def projection_sum(symbol, operands):
    """The Daleckii-Krein sum over cluster tuples, one projection sandwich each."""
    clusters = [d.clusters for d in operands.decomps]
    n = operands.dimension
    out = np.zeros((n, n), dtype=complex)
    for combo in itertools.product(*clusters):
        term = combo[0].projection
        for b, cluster in zip(operands.middles, combo[1:]):
            term = term @ b @ cluster.projection
        out += symbol(tuple(c.eigenvalue for c in combo)) * term
    return out


def mixed_operands(rng, n, k, cluster_tol=1e-8, pair=1.0):
    """Slots with exact repeats, a pair ``pair * cluster_tol`` apart, distinct
    values, one cluster.

    At ``pair = 1`` the computed gap is a few ulps on either side of
    ``cluster_tol``, so whether the pair merges depends on the eigensolver's
    rounding; ``pair = 2`` keeps it split and ``pair = 0.5`` merges it.
    """
    spectra = [
        np.repeat([-1.0, 0.25, 1.5], [n // 2, n // 4, n - n // 2 - n // 4]),
        np.concatenate([[0.1, 0.1 + pair * cluster_tol, 0.1 + (pair + 1.5) * cluster_tol],
                        np.linspace(0.5, 1.8, n - 3)]),
        np.sort(rng.uniform(-1.5, 1.5, n)),
        np.full(n, 0.7),
    ]
    bases = [hermitian_with(rng, spectra[j % len(spectra)]) for j in range(k + 1)]
    middles = [random_hermitian(rng, n) for _ in range(k)]
    return MoiOperands.from_matrices(bases, middles, cluster_tol=cluster_tol)


def rel(a, b):
    return np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b))


class TestEngineAgainstOracles:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_projection_sum_with_mixed_cluster_counts(self, k):
        ops = mixed_operands(suite_rng(100 + k, 0), 16 if k < 3 else 8, k)
        assert len({len(d.clusters) for d in ops.decomps}) > 1
        for f in ROUTES.values():
            symbol = MoiSymbol.from_function(f, k)
            assert rel(moi_evaluate(symbol, ops), projection_sum(symbol, ops)) < 1e-13

    @pytest.mark.parametrize("k", [1, 2])
    def test_polynomial_oracle(self, k):
        # a split pair 2 * cluster_tol apart: the divided differences resolve it
        ops = mixed_operands(suite_rng(110 + k, 0), 16, k, pair=2.0)
        assert len(ops.decomps[1].eigenvalues) == 16
        for power in (k, k + 2, 6):
            symbol = MoiSymbol.from_function(Polynomial([0] * power + [1]), k)
            assert rel(moi_evaluate(symbol, ops), moi_polynomial(power, ops)) < 1e-10

    @pytest.mark.parametrize("k", [1, 2])
    def test_merged_pair_is_exact_for_the_represented_matrices(self, k):
        # a pair half a cluster_tol apart merges into its mean; the integral is
        # then exact for V diag(eigenvalues[labels]) V*, not for the source
        ops = mixed_operands(suite_rng(115 + k, 0), 16, k, pair=0.5)
        merged = ops.decomps[1]
        assert len(merged.eigenvalues) == 15 and merged.clusters[0].multiplicity == 2
        represented = MoiOperands(tuple(
            dataclasses.replace(d, source=(d.vectors * d.eigenvalues[d.labels])
                                @ d.vectors.conj().T)
            for d in ops.decomps), ops.middles)
        for power in (k, k + 2, 6):
            symbol = MoiSymbol.from_function(Polynomial([0] * power + [1]), k)
            assert rel(moi_evaluate(symbol, ops), moi_polynomial(power, represented)) < 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_wiener_oracle(self, k):
        ops = mixed_operands(suite_rng(120 + k, 0), 16, k)
        f = WienerAtomic([(0.9, 0.4 + 0.1j), (-1.4, 0.8)])
        direct = moi_evaluate(MoiSymbol.from_function(f, k), ops)
        assert rel(direct, moi_wiener(f, ops)) < 1e-8

    def test_separated_oracle_through_the_evaluator_fallback(self):
        ops = mixed_operands(suite_rng(130, 0), 16, 2)
        ident, square, one = Polynomial([0, 1]), Polynomial([0, 0, 1]), Polynomial([1])
        factors = [(ident, one, square), (one, square, ident)]
        weights = [1.5, -0.5j]
        symbol = MoiSymbol(3, lambda lam: 1.5 * lam[0] * lam[2] ** 2
                           - 0.5j * lam[1] ** 2 * lam[2])
        assert symbol.batch_evaluator is None
        assert rel(moi_evaluate(symbol, ops), moi_separated(factors, weights, ops)) < 1e-12

    def test_dimension_one(self):
        rng = suite_rng(140, 0)
        for k in (1, 2, 3):
            bases = [np.array([[rng.uniform(-1, 1)]]) for _ in range(k + 1)]
            middles = [np.array([[rng.uniform(-1, 1)]]) for _ in range(k)]
            ops = MoiOperands.from_matrices(bases, middles)
            f = ROUTES["wiener"]
            value = moi_evaluate(MoiSymbol.from_function(f, k), ops)
            lam = [b[0, 0] for b in bases]
            expected = divided_difference(f, lam) * np.prod([b[0, 0] for b in middles])
            assert abs(value[0, 0] - expected) < 1e-13 * (1 + abs(expected))


class TestSymbolTensor:
    def test_generic_lambda_fills_from_evaluator(self):
        lists = [np.array([0.0, 1.0]), np.array([2.0, 3.0, 5.0])]
        symbol = MoiSymbol(2, lambda lam: lam[0] + 10 * lam[1])
        expected = lists[0][:, None] + 10 * lists[1][None, :]
        np.testing.assert_array_equal(symbol.tensor(lists), expected)

    def test_batch_matches_per_tuple_evaluator(self):
        rng = suite_rng(150, 0)
        lists = [np.sort(rng.uniform(-1, 1, 5)), np.array([-0.3, 0.2]),
                 np.sort(rng.uniform(-1, 1, 4))]
        for f in ROUTES.values():
            symbol = MoiSymbol.from_function(f, 2)
            plain = MoiSymbol(3, symbol.evaluator)
            assert scaled(symbol.tensor(lists), plain.tensor(lists)).max() < 1e-13

    def test_constant_tensor(self):
        tensor = MoiSymbol.constant(2.5, 3).tensor([[0.0, 1.0], [2.0], [3.0, 4.0]])
        assert tensor.shape == (2, 1, 2)
        assert np.all(tensor == 2.5)

    def test_tensor_shape_is_checked(self):
        rng = suite_rng(160, 0)
        ops = MoiOperands.from_matrices([random_hermitian(rng, 3)] * 2,
                                        [random_hermitian(rng, 3)])
        with pytest.raises(DimensionMismatch):
            moi_evaluate(MoiSymbol.constant(1.0, 2), ops, tensor=np.ones((2, 2)))


class TestDeterminism:
    def test_identical_calls_are_bit_identical(self):
        rng = suite_rng(170, 0)
        ops = mixed_operands(rng, 12, 2)
        symbol = MoiSymbol.from_function(WIENER, 2)
        assert np.array_equal(moi_evaluate(symbol, ops), moi_evaluate(symbol, ops))
        a = random_hermitian(rng, 8, norm=0.9)
        dirs = tuple(random_hermitian(rng, 8) for _ in range(3))
        request = DerivativeRequest(builtin_function("exp"), a, dirs, 3, "moi")
        assert np.array_equal(matrix_function_derivative(request),
                              matrix_function_derivative(request))
