"""The divided-difference table and the eigenbasis MOI engine against
50-digit mpmath and the oracle routes.

The batched table and the symbol tensor must agree with the extended-
precision recursion on adversarial node sets (exact repeats, gaps down to
the coincidence tolerance, spans either side of the confluent span), and
the contracted integral must agree with the projection-sandwich sum it
replaces and with the separated, oscillatory and monomial evaluations, on
spectra with exact repeats, gaps at the clustering threshold, n = 1 and
mixed bases.
"""

import dataclasses
import itertools
import math

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
    finite_difference_derivative,
    hermitian_eigendecompose,
    matrix_function_derivative,
    moi_evaluate,
    moi_polynomial,
    moi_separated,
    moi_wiener,
    poly_divided_difference,
    wiener_divided_difference,
)
from moikit.errors import CoincidentNodes, DimensionMismatch
from moikit.scalar_functions import (
    COINCIDENCE_TOL_FACTOR,
    confluent_span,
    divided_difference_grid,
    divided_difference_mp,
)
from moikit.verify import DEFAULT_TOLERANCES, random_hermitian, suite_rng

WIENER = WienerAtomic([(1.0, 0.5), (-1.0, 0.5), (2.3, 0.2 - 0.1j)])
# one function per oracle route it is also checked against: a polynomial
# (closed form), an atomic sum (Fourier side), exp with twelve declared
# derivatives (simplex quadrature), and exp with two, which the series patch
# serves at levels 1 and 2 only (the recursion)
ROUTES = {
    "closed_form": Polynomial([0.3, -1.0, 0.5, 0.25, -0.7, 0.1, 0.9, -0.2]),
    "wiener": WIENER,
    "quadrature": builtin_function("exp"),
    "recursion": builtin_function("exp", {"max_order": 2}),
}


def scaled(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)) / (1.0 + np.abs(np.asarray(b)))


def oracle(route, f, row):
    """The oracle route of ``route`` at ``row``, and the tolerance it is held to."""
    k = len(row) - 1
    if route == "closed_form":
        return poly_divided_difference(f, row), 1e-12
    if route == "wiener":
        return wiener_divided_difference(f, row), 1e-9
    if route == "quadrature" and k:
        return divided_difference_quadrature(f, row), 1e-9
    # the recursion is a quotient table without the series patch, which
    # loses about eps 2^k / span^k: held, like the quadratures, at the
    # agreement gate
    return divided_difference_recursive(f, row), 1e-9 if k else 1e-12


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
    """Random rows, exact repeats, a near-coincident pair, close pairs near 0.01."""
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
                row[1] = row[0] + 1e-2 * (1.0 + np.abs(row).max()) * side
                rows.append(row)
    return np.array(rows)


# the adversarial set: equispaced and pair-in-a-wide-tuple rows at each gap,
# on both sides of 0 and straddling it
ADVERSARIAL_GAPS = (0.1, 1.2e-2, 1e-3, 1e-5, 2e-7, 0.0)


def adversarial_rows(k):
    rows = []
    for gap in ADVERSARIAL_GAPS:
        for x0 in (0.7, -1.3, -0.5 * k * gap):
            rows.append(x0 + gap * np.arange(k + 1))
            rows.append(x0 + np.concatenate([[0.0, gap], 0.3 * np.arange(1, k)])[:k + 1])
    return np.array(rows)


ADVERSARIAL_FUNCTIONS = {"polynomial": ROUTES["closed_form"], "wiener": WIENER,
                         "exp": builtin_function("exp"), "cos": builtin_function("cos")}


class TestBatchedDividedDifference:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("merge_width", [None, MERGE_WIDTH])
    def test_matches_scalar_dispatcher(self, route, k, merge_width):
        # each row must match 50-digit mpmath, its oracle route, and the
        # scalar dispatcher, which evaluates it alone in a batch of one
        f = ROUTES[route]
        rows = node_rows(suite_rng(90 + k, 0), k)
        if merge_width is not None:
            rows = np.array([merge_within(row, merge_width) for row in rows])
        batch = divided_difference_batch(f, rows)
        assert batch.shape == (len(rows),)
        for row, value in zip(rows, batch):
            assert scaled(value, divided_difference_mp(f, row)) < 1e-12
            reference, tol = oracle(route, f, row)
            assert scaled(value, reference) < tol
            assert scaled(value, divided_difference(f, row)) < 1e-15

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_FUNCTIONS))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_adversarial_set_against_mpmath(self, name, k):
        f = ADVERSARIAL_FUNCTIONS[name]
        rows = adversarial_rows(k)
        reference = [divided_difference_mp(f, row) for row in rows]
        assert scaled(divided_difference_batch(f, rows), reference).max() <= 1e-12
        # each row as an entry of a grid: on the grid of its distinct nodes
        # in every slot (one shared list), and rotated one slot per node
        rotation = np.roll(np.arange(k + 1), 1)
        for row, value in zip(rows, reference):
            nodes = np.unique(row)
            shared = divided_difference_grid(f, [nodes] * (k + 1))
            assert scaled(shared[tuple(np.searchsorted(nodes, row))], value) <= 1e-12
            single = divided_difference_grid(f, [row[[j]] for j in rotation])
            assert scaled(single.ravel()[0], value) <= 1e-12

    @pytest.mark.parametrize("k, max_order", [(2, 2), (3, 3), (4, 4), (5, 5), (5, 12)])
    def test_clustered_rows_with_few_declared_derivatives(self, k, max_order):
        # rows clustered at gaps 1e-6..1e-4, where the quotients alone lose
        # eps 2^k / gap^k: the series patch needs f^(j) only, so exp declaring
        # just k derivatives (or the twelve default ones at k = 5) is patched
        f = builtin_function("exp", {"max_order": max_order})
        rng = suite_rng(97, k)
        rows = []
        for gap in (1e-6, 1e-5, 1e-4):
            for x0 in (0.0, 0.7, -1.3):
                rows.append(x0 + gap * np.arange(k + 1))
                rows.append(x0 + gap * np.sort(rng.uniform(0.0, 1.0, k + 1)))
        reference = [divided_difference_mp(f, row) for row in rows]
        assert scaled(divided_difference_batch(f, np.array(rows)), reference).max() <= 1e-12

    def test_generic_callable_per_row(self):
        # no declared derivatives: every row keeps the quotients
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


# unsorted lists with a pair 1e-6 apart and an exact repeat: one whose every
# tuple lies within the confluent span, and one spread across it
CLUSTERED_LIST = np.array([0.30002, 0.3 + 1e-6, 0.3, 0.3])
SPREAD_LIST = np.array([0.7, 0.2 + 1e-6, -0.4, 0.2, 1.3, 0.7, 0.25])


def grid_entries(x, k):
    """Every index tuple of the order-k grid over ``x``, its nodes, and the
    tuple sorted by node value (ties by index)."""
    index = np.indices((x.size,) * (k + 1)).reshape(k + 1, -1).T
    rank = np.argsort(np.argsort(x, kind="stable"))
    ordered = np.argsort(x, kind="stable")[np.sort(rank[index], axis=1)]
    return index, x[index], ordered


class TestSharedListGrid:
    # a level whose slots share one list reads each entry within the
    # confluent span at its index tuple sorted by node value

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_clustered_tensor_is_symmetric_bit_for_bit(self, k):
        for f in ADVERSARIAL_FUNCTIONS.values():
            tensor = divided_difference_grid(f, [CLUSTERED_LIST] * (k + 1))
            for sigma in itertools.permutations(range(k + 1)):
                assert np.array_equal(tensor, tensor.transpose(sigma))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_spread_tensor_reads_narrow_entries_at_the_sorted_tuple(self, k):
        index, nodes, ordered = grid_entries(SPREAD_LIST, k)
        first, last = nodes[:, 0], nodes[:, -1]
        narrow = np.abs(first - last) < confluent_span(k) * (
            1.0 + np.maximum(np.abs(first), np.abs(last)))
        assert 0 < narrow.sum() < narrow.size
        for f in ADVERSARIAL_FUNCTIONS.values():
            tensor = divided_difference_grid(f, [SPREAD_LIST] * (k + 1))
            flat = tensor.ravel()
            at_sorted = tensor[tuple(ordered.T)]
            assert np.array_equal(flat[narrow], at_sorted[narrow])
            # the quotients of wide entries divide by their first and last
            # node, so only reversal is exact for them
            assert np.array_equal(tensor, tensor.transpose(range(k, -1, -1)))
            for sigma in itertools.permutations(range(k + 1)):
                assert scaled(tensor.transpose(sigma), tensor).max() <= 1e-13

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_entries_match_the_batch_at_their_sorted_rows(self, k):
        for x in (CLUSTERED_LIST, SPREAD_LIST):
            _, nodes, _ = grid_entries(x, k)
            for f in ADVERSARIAL_FUNCTIONS.values():
                tensor = divided_difference_grid(f, [x] * (k + 1))
                batch = divided_difference_batch(f, np.sort(nodes, axis=1))
                assert scaled(tensor.ravel(), batch).max() <= 1e-13

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_plain_callable_at_a_repeated_node_raises(self, k):
        def f(x):
            return np.sin(x) ** 2

        with pytest.raises(CoincidentNodes):
            divided_difference_grid(f, [SPREAD_LIST] * (k + 1))
        with pytest.raises(CoincidentNodes):
            divided_difference_grid(f, [SPREAD_LIST[:3]] + [SPREAD_LIST[3:]] * k)


class TestHolderClass:
    # |x|^s with s in (k, k+1) is C^{k,s-k}: k derivatives, the k-th with a
    # cusp at 0, so the series converges only on hulls away from 0 and the
    # table keeps its quotients across 0

    @pytest.mark.parametrize("s", [1.5, 2.5, 3.5])
    def test_abs_pow_against_mpmath(self, s):
        k = math.floor(s)
        f = builtin_function("abs_pow", {"exponent": s})
        rng = suite_rng(180, int(2 * s))
        rows = []
        while len(rows) < 300:
            row = np.sort(rng.uniform(-1, 1, k + 1))
            if row[0] < 0 < row[-1] and np.diff(row).min() >= 1e-3:
                rows.append(row)
        rows = np.array(rows)
        reference = [divided_difference_mp(f, row) for row in rows]
        assert scaled(divided_difference_batch(f, rows), reference).max() <= 1e-11

    @pytest.mark.parametrize("k", [1, 2])
    def test_abs_pow_derivative_against_the_stencil(self, k):
        f = builtin_function("abs_pow", {"exponent": 2.5})
        rng = suite_rng(185, k)
        for _ in range(3):
            a = random_hermitian(rng, 5, norm=0.8)
            dirs = tuple(random_hermitian(rng, 5, norm=1.0) for _ in range(k))
            via_moi = matrix_function_derivative(DerivativeRequest(f, a, dirs, k, "moi"))
            via_fd = finite_difference_derivative(f, a, dirs)
            rel = np.linalg.norm(via_moi - via_fd) / (1.0 + np.linalg.norm(via_moi))
            assert rel <= DEFAULT_TOLERANCES["derivative_fd"]


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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("merged", [False, True])
    def test_one_decomposition_in_every_slot(self, k, merged):
        # the derivative's operands: the tensor is contracted without the
        # cluster expansion unless a cluster merged
        n = {1: 8, 2: 8, 3: 6, 4: 4}[k]
        rng = suite_rng(105 + k, int(merged))
        spectrum = np.sort(rng.uniform(-1.5, 1.5, n))
        if merged:
            # an exact repeat and a pair half a cluster_tol apart
            spectrum[1] = spectrum[0]
            spectrum[-1] = spectrum[-2] + 0.5e-8
        decomp = hermitian_eigendecompose(hermitian_with(rng, spectrum), cluster_tol=1e-8)
        ops = MoiOperands((decomp,) * (k + 1),
                          tuple(random_hermitian(rng, n) for _ in range(k)))
        assert len(ops.decomps[0].eigenvalues) == (n - 2 if merged else n)
        for f in (ROUTES["quadrature"], ROUTES["wiener"]):
            symbol = MoiSymbol.from_function(f, k)
            assert rel(moi_evaluate(symbol, ops), projection_sum(symbol, ops)) < 1e-13
        represented = MoiOperands(tuple(
            dataclasses.replace(d, source=(d.vectors * d.eigenvalues[d.labels])
                                @ d.vectors.conj().T)
            for d in ops.decomps), ops.middles)
        for power in (k, k + 2, 6):
            symbol = MoiSymbol.from_function(Polynomial([0] * power + [1]), k)
            assert rel(moi_evaluate(symbol, ops), moi_polynomial(power, represented)) < 1e-10

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
        assert symbol.grid_evaluator is None
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
