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

import itertools
import math
import tracemalloc

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
from moikit import scalar_functions
from moikit.errors import CoincidentNodes, DimensionMismatch
from moikit.scalar_functions import (
    COINCIDENCE_TOL_FACTOR,
    confluent_span,
    divided_difference_grid,
    divided_difference_mp,
)
from moikit.spectral import CLUSTER_TOL_FACTOR
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

    @pytest.mark.parametrize("x", [0.7, -1.3, 0.01, 2.5, 1.0])
    def test_one_ulp_pair_reads_the_series_on_its_interval(self, x):
        # the midpoint of a pair one ulp apart rounds to an endpoint; the
        # series patch must still map the pair to -1 and 1, or its Chebyshev
        # series is read at 2, where T_8(2) ~ 2e4 amplifies its rounding
        p = Polynomial([0] * 6 + [1])
        nodes = [x, np.nextafter(x, np.inf)]
        reference = complex(divided_difference_mp(p, nodes))
        assert abs(divided_difference(p, nodes) - reference) <= 1e-13 * abs(reference)

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
# its distinct nodes sorted
SORTED_LIST = np.unique(SPREAD_LIST)
# a nondecreasing list with a triple node and a node 1e-9 above it: the
# eigenvalues of one decomposition, which every slot of a derivative holds
REPEATED_LIST = np.sort(np.concatenate([[0.2] * 3, [0.2 + 1e-9], np.linspace(-1.0, 1.0, 5)]))
# near and exact repeats of SPREAD_LIST nodes, and nodes of its own
OTHER_LIST = np.array([-0.4 + 1e-7, 0.2, 0.7 + 1e-5, 1.0])


def grid_entries(x, k):
    """Every index tuple of the order-k grid over ``x``, its nodes, and the
    tuple sorted by node value (ties by index)."""
    index = np.indices((x.size,) * (k + 1)).reshape(k + 1, -1).T
    rank = np.argsort(np.argsort(x, kind="stable"))
    ordered = np.argsort(x, kind="stable")[np.sort(rank[index], axis=1)]
    return index, x[index], ordered


class TestSharedListGrid:
    # slots that share one list tabulate f^[k] once per sorted index tuple
    # and read every entry there

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
            # wide entries too: the tensor is symmetric bit for bit
            assert np.array_equal(tensor.ravel(), tensor[tuple(ordered.T)])
            for sigma in itertools.permutations(range(k + 1)):
                assert np.array_equal(tensor, tensor.transpose(sigma))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_entries_match_the_batch_at_their_sorted_rows(self, k):
        # the grid and the batch take the same steps at the sorted row
        for x in (CLUSTERED_LIST, SPREAD_LIST):
            _, nodes, _ = grid_entries(x, k)
            for f in ADVERSARIAL_FUNCTIONS.values():
                tensor = divided_difference_grid(f, [x] * (k + 1))
                batch = divided_difference_batch(f, np.sort(nodes, axis=1))
                assert np.array_equal(tensor.ravel(), batch)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_plan_against_sorted_index_tuples(self, n, k):
        # the colex rank of a nondecreasing tuple s is sum_m C(s_m + m, m + 1)
        def rank(row):
            return sum(math.comb(int(s) + m, m + 1) for m, s in enumerate(row))

        levels, ranks = scalar_functions._plan(n, k)
        index = np.indices((n,) * (k + 1)).reshape(k + 1, -1).T
        assert np.array_equal(ranks.ravel(), [rank(row) for row in np.sort(index, axis=1)])
        previous = np.arange(n)[:, None]
        for j, (rows, lower, upper) in enumerate(levels, 1):
            assert rows.shape == (math.comb(n + j, j + 1), j + 1)
            assert np.all(np.diff(rows, axis=1) >= 0)
            assert [rank(row) for row in rows] == list(range(len(rows)))
            assert np.array_equal(previous[lower], rows[:, :-1])
            assert np.array_equal(previous[upper], rows[:, 1:])
            previous = rows

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_slab_gather_matches_the_cached_rank_map(self, k, monkeypatch):
        # a grid over one sorted, distinct list above PLAN_CACHE_ENTRIES is
        # gathered slab by slab
        expected = {name: divided_difference_grid(f, [SORTED_LIST] * (k + 1))
                    for name, f in ADVERSARIAL_FUNCTIONS.items()}
        monkeypatch.setattr(scalar_functions, "PLAN_CACHE_ENTRIES", 0)
        for name, f in ADVERSARIAL_FUNCTIONS.items():
            assert np.array_equal(divided_difference_grid(f, [SORTED_LIST] * (k + 1)),
                                  expected[name])

    def test_large_grid_peak_memory_is_about_the_tensor(self):
        # no index or node array of the whole grid: at k = 3, n = 40 the
        # traced peak stays within 1.5 times the complex tensor
        x = np.linspace(-1.0, 1.0, 40)
        f = ADVERSARIAL_FUNCTIONS["cos"]
        assert x.size ** 4 > scalar_functions.PLAN_CACHE_ENTRIES
        tracemalloc.start()
        try:
            tensor = divided_difference_grid(f, [x] * 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * tensor.nbytes

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_unsorted_lists_permute_the_sorted_grid_back(self, k):
        # OTHER_LIST repeats SPREAD_LIST nodes nearly and exactly, so the
        # union table patches entries too
        for x in (CLUSTERED_LIST, SPREAD_LIST):
            order = np.argsort(x, kind="stable")
            back = np.argsort(order)
            for f in ADVERSARIAL_FUNCTIONS.values():
                shared = divided_difference_grid(f, [x[order]] * (k + 1))
                assert np.array_equal(divided_difference_grid(f, [x] * (k + 1)),
                                      shared[np.ix_(*[back] * (k + 1))])
                mixed = divided_difference_grid(f, [x[order]] + [OTHER_LIST] * k)
                assert np.array_equal(divided_difference_grid(f, [x] + [OTHER_LIST] * k),
                                      mixed[back])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equal_lists_share_their_levels(self, k, monkeypatch):
        # slots are matched by content, so a Python list in every slot and
        # equal copies of one sorted, distinct array never reach the table
        # over the union of the slots' nodes
        f = ADVERSARIAL_FUNCTIONS["cos"]
        expected = divided_difference_grid(f, [SORTED_LIST] * (k + 1))

        def union_grid(*args):
            raise AssertionError("a grid over one sorted list took the union table")

        monkeypatch.setattr(scalar_functions, "_union_grid", union_grid)
        for lists in ([SORTED_LIST.tolist()] * (k + 1),
                      [SORTED_LIST.copy() for _ in range(k + 1)]):
            assert np.array_equal(divided_difference_grid(f, lists), expected)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_repeated_nodes_take_the_shared_table(self, k, monkeypatch):
        # the list reversed is not nondecreasing, so it takes the union table
        _, nodes, _ = grid_entries(REPEATED_LIST, k)
        back = (slice(None, None, -1),) * (k + 1)
        functions = [builtin_function(name) for name in ("cos", "exp")]
        union = [divided_difference_grid(f, [REPEATED_LIST[::-1]] * (k + 1))[back]
                 for f in functions]

        def union_grid(*args):
            raise AssertionError("a nondecreasing list with ties took the union table")

        monkeypatch.setattr(scalar_functions, "_union_grid", union_grid)
        for f, expected in zip(functions, union):
            tensor = divided_difference_grid(f, [REPEATED_LIST] * (k + 1))
            assert np.array_equal(tensor.ravel(),
                                  divided_difference_batch(f, np.sort(nodes, axis=1)))
            assert np.array_equal(tensor, expected)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_slab_gather_reads_repeated_nodes_like_the_rank_map(self, k, monkeypatch):
        # the slab-by-slab gather of a grid above PLAN_CACHE_ENTRIES takes a
        # nondecreasing list with ties to the same entries as the cached map
        _, nodes, _ = grid_entries(REPEATED_LIST, k)
        functions = [builtin_function(name) for name in ("cos", "exp")]
        cached = [divided_difference_grid(f, [REPEATED_LIST] * (k + 1)) for f in functions]
        monkeypatch.setattr(scalar_functions, "PLAN_CACHE_ENTRIES", 0)
        for f, expected in zip(functions, cached):
            tensor = divided_difference_grid(f, [REPEATED_LIST] * (k + 1))
            assert np.array_equal(tensor, expected)
            assert np.array_equal(tensor.ravel(),
                                  divided_difference_batch(f, np.sort(nodes, axis=1)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_plain_callable_at_a_repeated_node_raises(self, k):
        def f(x):
            return np.sin(x) ** 2

        with pytest.raises(CoincidentNodes):
            divided_difference_grid(f, [SPREAD_LIST] * (k + 1))
        with pytest.raises(CoincidentNodes):
            divided_difference_grid(f, [SPREAD_LIST[:3]] + [SPREAD_LIST[3:]] * k)


def product_rows(lists):
    """The node tuple of every entry of the product grid, in C order."""
    return np.stack([g.ravel() for g in np.meshgrid(*lists, indexing="ij")], axis=1)


class TestMixedListGrid:
    # slots that hold different lists read every entry from one table over
    # the union of their nodes

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_entries_match_the_batch_at_their_sorted_rows(self, k):
        for lists in ([SPREAD_LIST] + [OTHER_LIST] * k, [OTHER_LIST] + [SPREAD_LIST] * k):
            for f in ADVERSARIAL_FUNCTIONS.values():
                tensor = divided_difference_grid(f, lists)
                assert tensor.shape == tuple(x.size for x in lists)
                assert np.array_equal(tensor.ravel(),
                                      divided_difference_batch(f, product_rows(lists)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_plain_callable_raises_only_where_an_entry_needs_a_derivative(self, k):
        def f(x):
            return np.sin(x) ** 2

        pair = np.array([0.2, 0.2 + 1e-9])
        # the pair within one slot, the other slots apart: no entry holds two
        # nodes closer than 0.1
        lists = [pair] + [np.array([0.5, 0.6]) + 0.4 * m for m in range(k)]
        assert np.array_equal(divided_difference_grid(f, lists).ravel(),
                              divided_difference_batch(f, product_rows(lists)))
        # the pair as the sorted, distinct list of every slot, and split
        # across two slots
        with pytest.raises(CoincidentNodes):
            divided_difference_grid(f, [pair] * (k + 1))
        with pytest.raises(CoincidentNodes):
            divided_difference_grid(f, [pair[:1], pair[1:]]
                                    + [np.array([0.5 + 0.4 * m]) for m in range(k - 1)])


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

    def test_stencil_step_next_to_the_cusp(self):
        # an eigenvalue 1e-3 from 0, where the second derivative of |x|^2.5
        # is only Hoelder, and directions that move it by their own size:
        # the fixed step keeps the stencil on one side of the cusp, while a
        # step growing with the order, eps^(1/(k+4)), straddles it (9e-3)
        f = builtin_function("abs_pow", {"exponent": 2.5})
        rng = suite_rng(186, 0)
        for _ in range(3):
            q = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
            a = (q * [-0.5, 1e-3, 0.2, 0.4, 0.8]) @ q.conj().T
            cusp = np.outer(q[:, 1], q[:, 1].conj())
            dirs = tuple(cusp + random_hermitian(rng, 5, norm=0.5) for _ in range(2))
            via_moi = matrix_function_derivative(DerivativeRequest(f, a, dirs, 2, "moi"))
            via_fd = finite_difference_derivative(f, a, dirs)
            rel = np.linalg.norm(via_moi - via_fd) / (1.0 + np.linalg.norm(via_moi))
            assert rel <= DEFAULT_TOLERANCES["derivative_fd"]


def hermitian_with(rng, eigenvalues):
    n = len(eigenvalues)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    a = q @ np.diag(eigenvalues).astype(complex) @ q.conj().T
    return 0.5 * (a + a.conj().T)


def projection_sum(symbol, operands):
    """The Daleckii-Krein sum over eigenvector tuples, one sandwich of
    rank-one projectors each, weighted by the symbol at their eigenvalues."""
    slots = [[(lam, np.outer(v, v.conj())) for lam, v in zip(d.eigenvalues, d.vectors.T)]
             for d in operands.decomps]
    n = operands.dimension
    out = np.zeros((n, n), dtype=complex)
    for index in np.ndindex(*map(len, slots)):
        combo = [slot[i] for slot, i in zip(slots, index)]
        term = combo[0][1]
        for b, (_, projector) in zip(operands.middles, combo[1:]):
            term = term @ b @ projector
        out += symbol(tuple(lam for lam, _ in combo)) * term
    return out


def own_tolerance(spectrum):
    """The grouping tolerance of a matrix with this spectrum, up to the
    rounding of its Frobenius norm."""
    return CLUSTER_TOL_FACTOR * (1.0 + np.linalg.norm(spectrum))


def mixed_operands(rng, n, k, pair=1.0):
    """Slots with exact repeats, a pair ``pair`` times its matrix's grouping
    tolerance apart, distinct values, one group.

    At ``pair = 1`` the computed gap is a few ulps on either side of the
    tolerance, so whether the grouping view puts the pair in one group
    depends on the eigensolver's rounding; ``pair = 2`` keeps it apart and
    ``pair = 0.5`` groups it.  The integrals read the eigenvalues themselves
    either way.
    """
    paired = np.concatenate([[0.1, 0.1, 0.1], np.linspace(0.5, 1.8, n - 3)])
    tol = own_tolerance(paired)
    paired[1:3] += np.array([pair, pair + 1.5]) * tol
    spectra = [
        np.repeat([-1.0, 0.25, 1.5], [n // 2, n // 4, n - n // 2 - n // 4]),
        paired,
        np.sort(rng.uniform(-1.5, 1.5, n)),
        np.full(n, 0.7),
    ]
    bases = [hermitian_with(rng, spectra[j % len(spectra)]) for j in range(k + 1)]
    middles = [random_hermitian(rng, n) for _ in range(k)]
    return MoiOperands.from_matrices(bases, middles)


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
        # the derivative's operands: the tensor over the eigenvalues, ties
        # included, is exact for the source matrices
        n = {1: 8, 2: 8, 3: 6, 4: 4}[k]
        rng = suite_rng(105 + k, int(merged))
        spectrum = np.sort(rng.uniform(-1.5, 1.5, n))
        if merged:
            # an exact repeat and a pair half its grouping tolerance apart
            spectrum[1] = spectrum[0]
            spectrum[-1] = spectrum[-2] + 0.5 * own_tolerance(spectrum)
        decomp = hermitian_eigendecompose(hermitian_with(rng, spectrum))
        ops = MoiOperands((decomp,) * (k + 1),
                          tuple(random_hermitian(rng, n) for _ in range(k)))
        assert len(ops.decomps[0].eigenvalues) == n
        assert len(ops.decomps[0].clusters) == (n - 2 if merged else n)
        for f in (ROUTES["quadrature"], ROUTES["wiener"]):
            symbol = MoiSymbol.from_function(f, k)
            assert rel(moi_evaluate(symbol, ops), projection_sum(symbol, ops)) < 1e-13
        for power in (k, k + 2, 6):
            symbol = MoiSymbol.from_function(Polynomial([0] * power + [1]), k)
            assert rel(moi_evaluate(symbol, ops), moi_polynomial(power, ops)) < 1e-10

    @pytest.mark.parametrize("k", [1, 2])
    def test_polynomial_oracle(self, k):
        # a split pair twice the tolerance apart: the divided differences resolve it
        ops = mixed_operands(suite_rng(110 + k, 0), 16, k, pair=2.0)
        assert len(ops.decomps[1].eigenvalues) == 16
        for power in (k, k + 2, 6):
            symbol = MoiSymbol.from_function(Polynomial([0] * power + [1]), k)
            assert rel(moi_evaluate(symbol, ops), moi_polynomial(power, ops)) < 1e-10

    @pytest.mark.parametrize("k", [1, 2])
    def test_grouped_pair_is_exact_for_the_source_matrices(self, k):
        # a pair half the tolerance apart shares a group of the grouping
        # view, but the integral reads both eigenvalues: it is exact for the
        # decomposed matrices themselves
        ops = mixed_operands(suite_rng(115 + k, 0), 16, k, pair=0.5)
        grouped = ops.decomps[1]
        assert len(grouped.eigenvalues) == 16 and len(grouped.clusters[0]) == 2
        for power in (k, k + 2, 6):
            symbol = MoiSymbol.from_function(Polynomial([0] * power + [1]), k)
            assert rel(moi_evaluate(symbol, ops), moi_polynomial(power, ops)) < 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_wiener_oracle(self, k):
        ops = mixed_operands(suite_rng(120 + k, 0), 16, k)
        f = WienerAtomic([(0.9, 0.4 + 0.1j), (-1.4, 0.8)])
        direct = moi_evaluate(MoiSymbol.from_function(f, k), ops)
        assert rel(direct, moi_wiener(f, ops)) < 1e-8

    def test_separated_oracle_on_an_arithmetic_symbol(self):
        ops = mixed_operands(suite_rng(130, 0), 16, 2)
        ident, square, one = Polynomial([0, 1]), Polynomial([0, 0, 1]), Polynomial([1])
        factors = [(ident, one, square), (one, square, ident)]
        weights = [1.5, -0.5j]
        symbol = MoiSymbol(3, lambda lam: 1.5 * lam[0] * lam[2] ** 2
                           - 0.5j * lam[1] ** 2 * lam[2])
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

    def test_call_equals_the_tensor_entry_and_the_divided_difference(self):
        rng = suite_rng(150, 0)
        lists = [np.sort(rng.uniform(-1, 1, 5)), np.array([-0.3, 0.2]),
                 np.sort(rng.uniform(-1, 1, 4))]
        for f in ROUTES.values():
            symbol = MoiSymbol.from_function(f, 2)
            tensor = symbol.tensor(lists)
            for index in [(0, 0, 0), (4, 1, 3), (2, 0, 1), (3, 1, 0)]:
                t = [lam[i] for lam, i in zip(lists, index)]
                assert symbol(t) == tensor[index] == divided_difference(f, t)

    def test_evaluator_runs_once_per_tensor(self):
        calls = []

        def evaluator(lam):
            calls.append(lam)
            return lam[0] * lam[1] - lam[2]

        symbol = MoiSymbol(3, evaluator)
        tensor = symbol.tensor([[0.0, 1.0], [2.0, 3.0, 5.0], [-1.0, 4.0, 0.5, 7.0]])
        assert len(calls) == 1 and tensor.shape == (2, 3, 4)
        assert tensor[1, 2, 3] == 1.0 * 5.0 - 7.0

    def test_result_that_does_not_broadcast_raises(self):
        symbol = MoiSymbol(2, lambda lam: np.ones(7))
        with pytest.raises(ValueError):
            symbol.tensor([[0.0, 1.0], [2.0, 3.0, 5.0]])

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
